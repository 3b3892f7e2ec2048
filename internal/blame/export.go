package blame

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// WriteJSON emits one or more blame reports as a deterministic JSON
// document (all slices are pre-sorted; no map iteration reaches the
// encoder).
func WriteJSON(w io.Writer, reps []Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Runs []Report `json:"runs"`
	}{Runs: reps})
}

// WriteCSV emits blame reports as flat rows with a uniform schema:
//
//	section,run,tenant,name,resource,ns,count
//
// section "blame" carries per-tenant buckets (name = bucket, count =
// requests); section "interference" carries matrix cells (tenant =
// victim, name = aggressor). Fields are quoted per RFC 4180 via
// obs.CSVField, so labels containing commas or quotes round-trip.
func WriteCSV(w io.Writer, reps []Report) error {
	if _, err := fmt.Fprintln(w, "section,run,tenant,name,resource,ns,count"); err != nil {
		return err
	}
	for _, rep := range reps {
		run := obs.CSVField(rep.Label)
		for _, t := range rep.Tenants {
			for _, b := range t.Buckets {
				if _, err := fmt.Fprintf(w, "blame,%s,%s,%s,,%d,%d\n",
					run, obs.CSVField(t.Tenant), obs.CSVField(b.Name),
					b.Dur.Nanoseconds(), t.Requests); err != nil {
					return err
				}
			}
		}
		for _, c := range rep.Interference {
			if _, err := fmt.Fprintf(w, "interference,%s,%s,%s,%s,%d,%d\n",
				run, obs.CSVField(c.Victim), obs.CSVField(c.Aggressor),
				obs.CSVField(c.Resource), c.Wait.Nanoseconds(), c.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteWhatIfJSON emits a what-if comparison as deterministic JSON.
func WriteWhatIfJSON(w io.Writer, rep WhatIfReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Render writes a human-readable blame summary: per-tenant bucket
// tables then the interference matrix.
func Render(w io.Writer, rep Report) {
	fmt.Fprintf(w, "blame %q: %d requests\n", rep.Label, rep.Requests)
	if rep.Unattributed > 0 {
		fmt.Fprintf(w, "  (%d waits outside any span)\n", rep.Unattributed)
	}
	if rep.Dropped > 0 {
		fmt.Fprintf(w, "  (%d events dropped at the recorder's cap: later requests are missing)\n", rep.Dropped)
	}
	for _, t := range rep.Tenants {
		mean := time.Duration(0)
		if t.Requests > 0 {
			mean = t.Total / time.Duration(t.Requests)
		}
		fmt.Fprintf(w, "\n%s: %d requests (%d cache hits, %d errors), mean %s\n",
			t.Tenant, t.Requests, t.CacheHits, t.Errors, mean.Round(time.Microsecond))
		for _, b := range t.Buckets {
			pct := 0.0
			if t.Total > 0 {
				pct = 100 * float64(b.Dur) / float64(t.Total)
			}
			fmt.Fprintf(w, "  %-18s %14s %6.1f%%\n",
				b.Name, b.Dur.Round(time.Microsecond), pct)
		}
	}
	fmt.Fprintln(w)
	RenderMatrix(w, rep.Interference)
}
