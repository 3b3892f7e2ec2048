package trace

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Tail is the percentile summary the experiment rows report.
type Tail struct {
	Count int
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
}

// TailOf summarizes a histogram.
func TailOf(h *metrics.Histogram) Tail {
	return Tail{
		Count: int(h.Count()),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
	}
}

// TenantTails summarizes a trace's per-tenant latency distributions.
func (t *Trace) TenantTails() map[string]Tail {
	hists := map[string]*metrics.Histogram{}
	for i := range t.Ops {
		h := hists[t.Ops[i].Tenant]
		if h == nil {
			h = metrics.NewHistogram()
			hists[t.Ops[i].Tenant] = h
		}
		h.Record(t.Ops[i].Latency)
	}
	out := make(map[string]Tail, len(hists))
	for tenant, h := range hists {
		out[tenant] = TailOf(h)
	}
	return out
}

// DiffRow compares one (tenant, op-kind) latency distribution between
// two traces. Kind "" aggregates all of the tenant's ops.
type DiffRow struct {
	Tenant string
	Kind   string
	A, B   Tail
}

// RatioP99 returns B's p99 as a multiple of A's (0 when A is empty).
func (r DiffRow) RatioP99() float64 { return ratio(r.A.P99, r.B.P99) }

// RatioP999 returns B's p999 as a multiple of A's (0 when A is empty).
func (r DiffRow) RatioP999() float64 { return ratio(r.A.P999, r.B.P999) }

func ratio(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return float64(b) / float64(a)
}

// Diff is the comparison of two traces — typically one recorded run
// and its replay under another configuration, or two replays of the
// same recording.
type Diff struct {
	LabelA, LabelB string
	OpsA, OpsB     int
	// ScheduleEqual reports byte-identical op schedules (same ops, same
	// issue times); SequenceEqual the weaker time-free property (same
	// ops in the same per-stream order). Replay guarantees the latter
	// across any configuration and the former under the recorded one.
	ScheduleEqual bool
	SequenceEqual bool
	// Rows hold per-tenant aggregates (Kind "") followed by
	// per-(tenant, kind) breakdowns, sorted.
	Rows []DiffRow
}

// Compare diffs two traces' latency distributions.
func Compare(a, b *Trace) *Diff {
	d := &Diff{
		LabelA: a.Label, LabelB: b.Label,
		OpsA: len(a.Ops), OpsB: len(b.Ops),
		ScheduleEqual: a.Schedule() == b.Schedule(),
		SequenceEqual: a.OpSequence() == b.OpSequence(),
	}
	type key struct{ tenant, kind string }
	hists := map[key][2]*metrics.Histogram{}
	ensure := func(k key) [2]*metrics.Histogram {
		h, ok := hists[k]
		if !ok {
			h = [2]*metrics.Histogram{metrics.NewHistogram(), metrics.NewHistogram()}
			hists[k] = h
		}
		return h
	}
	fold := func(t *Trace, side int) {
		for i := range t.Ops {
			op := &t.Ops[i]
			ensure(key{op.Tenant, ""})[side].Record(op.Latency)
			ensure(key{op.Tenant, op.Kind})[side].Record(op.Latency)
		}
	}
	fold(a, 0)
	fold(b, 1)
	keys := make([]key, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].kind < keys[j].kind
	})
	for _, k := range keys {
		h := hists[k]
		d.Rows = append(d.Rows, DiffRow{
			Tenant: k.tenant, Kind: k.kind,
			A: TailOf(h[0]), B: TailOf(h[1]),
		})
	}
	return d
}

// TenantRows returns only the per-tenant aggregate rows (Kind "").
func (d *Diff) TenantRows() []DiffRow {
	out := make([]DiffRow, 0, len(d.Rows))
	for _, r := range d.Rows {
		if r.Kind == "" {
			out = append(out, r)
		}
	}
	return out
}

// Render writes the human-readable diff table.
func (d *Diff) Render(w io.Writer) {
	eq := func(b bool) string {
		if b {
			return "equal"
		}
		return "DIFFERS"
	}
	fmt.Fprintf(w, "tracediff A=%s (%d ops) B=%s (%d ops) schedule=%s sequence=%s\n",
		d.LabelA, d.OpsA, d.LabelB, d.OpsB, eq(d.ScheduleEqual), eq(d.SequenceEqual))
	fmt.Fprintf(w, "%-10s %-8s %8s | %10s %10s %10s | %10s %10s %10s | %7s %7s\n",
		"tenant", "op", "n(A/B)", "p50.A", "p99.A", "p999.A", "p50.B", "p99.B", "p999.B", "x.p99", "x.p999")
	for _, r := range d.Rows {
		kind := r.Kind
		if kind == "" {
			kind = "*"
		}
		fmt.Fprintf(w, "%-10s %-8s %8s | %10s %10s %10s | %10s %10s %10s | %7.2f %7.2f\n",
			r.Tenant, kind, fmt.Sprintf("%d/%d", r.A.Count, r.B.Count),
			fmtDur(r.A.P50), fmtDur(r.A.P99), fmtDur(r.A.P999),
			fmtDur(r.B.P50), fmtDur(r.B.P99), fmtDur(r.B.P999),
			r.RatioP99(), r.RatioP999())
	}
}

// DiffCSVHeader names the columns of the diff's CSV rows.
const DiffCSVHeader = "tenant,op,count_a,count_b,p50_a_us,p99_a_us,p999_a_us,p50_b_us,p99_b_us,p999_b_us,ratio_p99,ratio_p999"

// WriteCSV writes the diff as CSV (durations in microseconds).
func (d *Diff) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, DiffCSVHeader); err != nil {
		return err
	}
	return d.WriteCSVRows(w, "")
}

// WriteCSVRows writes the diff's rows as CSV lines without a header.
// A non-empty lead is written as an extra first column of every line,
// so several diffs can share one file.
func (d *Diff) WriteCSVRows(w io.Writer, lead string) error {
	if lead != "" {
		lead += ","
	}
	us := func(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }
	for _, r := range d.Rows {
		kind := r.Kind
		if kind == "" {
			kind = "*"
		}
		if _, err := fmt.Fprintf(w, "%s%s,%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.3f,%.3f\n",
			lead, r.Tenant, kind, r.A.Count, r.B.Count,
			us(r.A.P50), us(r.A.P99), us(r.A.P999),
			us(r.B.P50), us(r.B.P99), us(r.B.P999),
			r.RatioP99(), r.RatioP999()); err != nil {
			return err
		}
	}
	return nil
}

func fmtDur(v time.Duration) string {
	return v.Round(time.Microsecond).String()
}
