package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Run labels one recorder for export; exporting several runs merges
// them into a single artifact with per-run process groups (the
// harness runs one testbed per experiment case).
type Run struct {
	Label string
	Rec   *Recorder
}

// The trace exporter emits Chrome trace-event JSON (the format
// Perfetto and chrome://tracing load): complete "X" slices with
// microsecond timestamps, one process group per run for the simulated
// cores and one per tenant, plus "M" metadata naming them. Events are
// hand-serialized into a reused buffer — a trace holds millions of
// them, and per-event json.Marshal calls (plus their args maps) would
// dominate the export. See OBSERVABILITY.md for how to open the file.

// appendJSONString appends s as a JSON string literal. Names in the
// simulator are plain identifiers, so the fast path covers everything;
// the encoder fallback keeps exotic input correct anyway.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendUsec appends a nanosecond count as decimal microseconds.
func appendUsec(b []byte, ns int64) []byte {
	return strconv.AppendFloat(b, float64(ns)/1e3, 'f', -1, 64)
}

// WriteTrace writes the merged Chrome/Perfetto trace of runs to w.
// Output is deterministic: events are emitted in recording order and
// process ids in sorted tenant order. A write error is checked once, at
// the flush: a bufio.Writer keeps its first error.
func WriteTrace(w io.Writer, runs []Run) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"traceEvents\":[\n")
	first := true
	buf := make([]byte, 0, 256)
	emit := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.Write(buf)
	}
	meta := func(kind string, pid, tid int, name string) {
		buf = buf[:0]
		buf = append(buf, `{"name":"`...)
		buf = append(buf, kind...)
		buf = append(buf, `","ph":"M","pid":`...)
		buf = strconv.AppendInt(buf, int64(pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(tid), 10)
		buf = append(buf, `,"args":{"name":`...)
		buf = appendJSONString(buf, name)
		buf = append(buf, `}}`...)
		emit()
	}
	for i, run := range runs {
		rec := run.Rec
		if rec == nil {
			continue
		}
		rec.Finalize()
		base := i * 100
		corePid := base + 1
		meta("process_name", corePid, 0, run.Label+" cores")
		maxCore := int32(-1)
		for _, c := range rec.CoreEvents() {
			if c.Core > maxCore {
				maxCore = c.Core
			}
		}
		for c := 0; c <= int(maxCore); c++ {
			meta("thread_name", corePid, c, fmt.Sprintf("core%d", c))
		}
		// One process per tenant, in sorted tenant order.
		tenantPid := map[Sym]int{}
		for _, s := range rec.Slices() {
			tenantPid[s.Tenant] = 0
		}
		names := make([]string, 0, len(tenantPid))
		bySym := map[Sym]string{}
		for t := range tenantPid {
			bySym[t] = rec.Str(t)
			names = append(names, bySym[t])
		}
		sort.Strings(names)
		byName := map[string]int{}
		for j, t := range names {
			byName[t] = base + 2 + j
		}
		for t := range tenantPid {
			tenantPid[t] = byName[bySym[t]]
		}
		for _, t := range names {
			meta("process_name", byName[t], 0, run.Label+" "+t)
		}
		for _, c := range rec.CoreEvents() {
			buf = buf[:0]
			buf = append(buf, `{"name":`...)
			buf = appendJSONString(buf, rec.Str(c.Account))
			buf = append(buf, `,"cat":"core","ph":"X","ts":`...)
			buf = appendUsec(buf, int64(c.Start))
			buf = append(buf, `,"dur":`...)
			buf = appendUsec(buf, int64(c.Dur))
			buf = append(buf, `,"pid":`...)
			buf = strconv.AppendInt(buf, int64(corePid), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(c.Core), 10)
			buf = append(buf, `,"args":{"kind":`...)
			buf = appendJSONString(buf, rec.Str(c.Kind))
			buf = append(buf, `}}`...)
			emit()
		}
		for _, s := range rec.Slices() {
			buf = buf[:0]
			buf = append(buf, `{"name":`...)
			buf = appendJSONString(buf, rec.Str(s.Layer))
			buf = append(buf, `,"cat":"span","ph":"X","ts":`...)
			buf = appendUsec(buf, int64(s.Start))
			buf = append(buf, `,"dur":`...)
			buf = appendUsec(buf, int64(s.Dur))
			buf = append(buf, `,"pid":`...)
			buf = strconv.AppendInt(buf, int64(tenantPid[s.Tenant]), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(s.Proc), 10)
			buf = append(buf, `,"args":{"span":`...)
			buf = strconv.AppendUint(buf, s.Span, 10)
			buf = append(buf, `,"op":`...)
			buf = appendJSONString(buf, rec.Str(s.Op))
			buf = append(buf, `,"tenant":`...)
			buf = appendJSONString(buf, rec.Str(s.Tenant))
			if s.Err {
				buf = append(buf, `,"err":true`...)
			}
			buf = append(buf, `}}`...)
			emit()
		}
	}
	bw.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// The metrics JSON document. Durations are nanoseconds; map keys are
// sorted by the encoder, so the document is deterministic.
type metricsDoc struct {
	Runs []runDoc `json:"runs"`
}

type runDoc struct {
	Label         string               `json:"label"`
	DroppedEvents uint64               `json:"dropped_events"`
	Tenants       map[string]tenantDoc `json:"tenants"`
}

type tenantDoc struct {
	Ops      map[string]opDoc     `json:"ops,omitempty"`
	Locks    map[string]lockDoc   `json:"locks,omitempty"`
	Counters map[string]int64     `json:"counters,omitempty"`
	Faults   *faultsDoc           `json:"faults,omitempty"`
	Series   map[string]seriesDoc `json:"series,omitempty"`
}

type opDoc struct {
	Count  uint64 `json:"count"`
	Errors uint64 `json:"errors"`
	Bytes  int64  `json:"bytes"`
	MinNs  int64  `json:"min_ns"`
	MeanNs int64  `json:"mean_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P90Ns  int64  `json:"p90_ns"`
	P99Ns  int64  `json:"p99_ns"`
	MaxNs  int64  `json:"max_ns"`
}

type lockDoc struct {
	Count     uint64 `json:"count"`
	Contended uint64 `json:"contended"`
	WaitNs    int64  `json:"wait_ns"`
	HoldNs    int64  `json:"hold_ns"`
	MaxWaitNs int64  `json:"max_wait_ns"`
}

type faultsDoc struct {
	Retries        uint64 `json:"retries"`
	Failovers      uint64 `json:"failovers"`
	DeadlineMisses uint64 `json:"deadline_misses"`
	TimeDegradedNs int64  `json:"time_degraded_ns"`
}

type seriesDoc struct {
	Points [][2]float64 `json:"points"` // [t_ns, value]
}

func tenantToDoc(t *TenantMetrics) tenantDoc {
	doc := tenantDoc{}
	if len(t.ops) > 0 {
		doc.Ops = map[string]opDoc{}
		for name, o := range t.ops {
			doc.Ops[name] = opDoc{
				Count: o.Ops, Errors: o.Errors, Bytes: o.Bytes,
				MinNs:  int64(o.Hist.Min()),
				MeanNs: int64(o.Hist.Mean()),
				P50Ns:  int64(o.Hist.Quantile(0.50)),
				P90Ns:  int64(o.Hist.Quantile(0.90)),
				P99Ns:  int64(o.Hist.Quantile(0.99)),
				MaxNs:  int64(o.Hist.Max()),
			}
		}
	}
	if len(t.locks) > 0 {
		doc.Locks = map[string]lockDoc{}
		for name, l := range t.locks {
			doc.Locks[name] = lockDoc{
				Count: l.Count, Contended: l.Contended,
				WaitNs: int64(l.Wait), HoldNs: int64(l.Hold), MaxWaitNs: int64(l.MaxWait),
			}
		}
	}
	if len(t.counters) > 0 {
		doc.Counters = t.counters
	}
	if f := t.faults; f.Retries+f.Failovers+f.DeadlineMisses != 0 || f.TimeDegraded != 0 {
		doc.Faults = &faultsDoc{
			Retries: f.Retries, Failovers: f.Failovers,
			DeadlineMisses: f.DeadlineMisses, TimeDegradedNs: int64(f.TimeDegraded),
		}
	}
	if len(t.series) > 0 {
		doc.Series = map[string]seriesDoc{}
		for name, s := range t.series {
			pts := make([][2]float64, len(s.Points))
			for i, p := range s.Points {
				pts[i] = [2]float64{float64(p.T), p.V}
			}
			doc.Series[name] = seriesDoc{Points: pts}
		}
	}
	return doc
}

// WriteMetrics writes the per-tenant metrics of runs as JSON.
func WriteMetrics(w io.Writer, runs []Run) error {
	doc := metricsDoc{Runs: []runDoc{}}
	for _, run := range runs {
		rec := run.Rec
		if rec == nil {
			continue
		}
		rec.Finalize()
		rd := runDoc{Label: run.Label, DroppedEvents: rec.Dropped(), Tenants: map[string]tenantDoc{}}
		for name, t := range rec.Registry().Tenants() {
			rd.Tenants[name] = tenantToDoc(t)
		}
		doc.Runs = append(doc.Runs, rd)
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// CSVField quotes one CSV field per RFC 4180: fields containing a
// comma, a double quote, or a newline are wrapped in double quotes with
// embedded quotes doubled; anything else passes through unchanged. The
// metrics exporter and the blame tables share it so run labels and lock
// names with punctuation survive a round trip through encoding/csv.
func CSVField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// WriteMetricsCSV writes every time series of runs as CSV rows
// (run,tenant,series,t_ns,value) in sorted run/tenant/series order,
// checking for a write error once, at the flush.
func WriteMetricsCSV(w io.Writer, runs []Run) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("run,tenant,series,t_ns,value\n")
	for _, run := range runs {
		rec := run.Rec
		if rec == nil {
			continue
		}
		rec.Finalize()
		reg := rec.Registry()
		tenants := make([]string, 0, len(reg.Tenants()))
		for t := range reg.Tenants() {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		for _, tn := range tenants {
			t := reg.Tenants()[tn]
			names := make([]string, 0, len(t.series))
			for n := range t.series {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, sn := range names {
				for _, p := range t.series[sn].Points {
					fmt.Fprintf(bw, "%s,%s,%s,%d,%s\n",
						CSVField(run.Label), CSVField(tn), CSVField(sn), int64(p.T),
						strconv.FormatFloat(p.V, 'g', -1, 64))
				}
			}
		}
	}
	return bw.Flush()
}
