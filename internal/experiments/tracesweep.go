package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// The trace-sweep family records one production-shaped run under the
// Danaus configuration and replays the captured op stream against
// other client configurations — the same arrivals, byte for byte, so
// every latency delta is attributable to the client stack rather than
// to workload noise. See TRACES.md for the workflow.

// Trace-sweep sizing. The fileset is shared by the record run and
// every replay run: replay reissues the recorded ops against a
// freshly prepared, identical fileset.
const (
	traceTenants  = 2
	traceFiles    = 16
	traceOpSize   = 32 << 10
	tracePeakRate = 250.0
	traceUsers    = 1000
)

// traceFileSize scales the per-file size with the experiment.
func traceFileSize(scale Scale) int64 {
	fs := int64(float64(16<<20) * scale.Factor)
	if fs < 256<<10 {
		fs = 256 << 10
	}
	return fs
}

// TraceCase is one replay target of the sweep.
type TraceCase struct {
	Label     string
	Config    core.Configuration
	Admission bool // enable the overload-protection policy
	// Identity marks the replay-under-the-recorded-configuration case,
	// whose schedule must reproduce the recording byte-identically.
	Identity bool
}

// TraceCases returns the sweep: identity replay under D (the
// determinism check), the kernel client, and D with admission control.
func TraceCases() []TraceCase {
	return []TraceCase{
		{Label: "D", Config: core.ConfigD, Identity: true},
		{Label: "K", Config: core.ConfigK},
		{Label: "D+adm", Config: core.ConfigD, Admission: true},
	}
}

// TraceClassRow is one (tenant, SLO class) percentile report of the
// recording run.
type TraceClassRow struct {
	Name       string // tenant/class
	Target     time.Duration
	Tail       trace.Tail
	Violations uint64
}

// TraceTenantRow is one tenant's tail latency in a replay, with ratios
// against the recorded baseline.
type TraceTenantRow struct {
	Tenant    string
	Tail      trace.Tail
	RatioP99  float64
	RatioP999 float64
}

// TraceRow is the outcome of one trace-sweep run (the recording, or
// one replay).
type TraceRow struct {
	TraceCase
	Baseline bool // the recording run itself

	Ops     int
	Errors  int
	Skipped int
	// ScheduleMatch reports a byte-identical op schedule against the
	// recording (issue times included); SequenceMatch the time-free
	// per-stream op equality every replay must preserve. Both are true
	// on the baseline row by definition.
	ScheduleMatch bool
	SequenceMatch bool

	Tenants []TraceTenantRow
	Classes []TraceClassRow // baseline run only

	// Trace is the run's op trace: the recording on the baseline row,
	// the re-recorded replay otherwise.
	Trace *trace.Trace

	// Buckets is the blame decomposition per request (host-wide);
	// ShiftBucket/ShiftPerReq name the bucket that moved most against
	// the baseline and by how much per request.
	Buckets     []blame.Bucket
	ShiftBucket string
	ShiftPerReq time.Duration
}

// observeTraced is the attach step of the trace-sweep testbeds: the
// run's Attach, then a plain recorder when it installed none — trace
// capture and blame analysis both need the span layer live.
func (run Run) observeTraced(tb *core.Testbed) {
	if run.Attach != nil {
		run.Attach(tb)
	}
	if tb.Obs == nil {
		attachRecorder(tb)
	}
}

// newTraceRig builds a trace-sweep testbed: one pool per tenant
// mounting the case's configuration, observed through observeTraced.
func newTraceRig(c TraceCase, run Run) (*rig, []*core.Container) {
	r := newRig(4, run.Params(), c.Admission, run.observeTraced)
	conts := make([]*core.Container, traceTenants)
	for i := range conts {
		conts[i] = r.flsContainer(i, c.Config, run.Scale)
	}
	return r, conts
}

// prepTraceFiles creates the production fileset in every container
// concurrently: traceFiles files of traceFileSize bytes each, fsynced.
func prepTraceFiles(p *sim.Proc, r *rig, conts []*core.Container, scale Scale) {
	preps := make([]func(*sim.Proc), len(conts))
	for i, cont := range conts {
		preps[i] = func(pp *sim.Proc) {
			ctx := vfsapi.Ctx{P: pp, T: cont.NewThread()}
			fs := cont.Mount.Default
			if err := fs.Mkdir(ctx, "/prod"); err != nil {
				panic(err)
			}
			for i := 0; i < traceFiles; i++ {
				workloads.WriteFile(ctx, fs, fmt.Sprintf("/prod/f%05d", i), traceFileSize(scale), 1<<20, true)
			}
		}
	}
	prepare(p, r.tb.Eng, preps...)
}

// RecordTraceBaseline runs the production-shaped workload — Zipf user
// popularity, diurnal arrivals, SLO classes — on two Danaus pools and
// captures the op stream into the row's Trace. Capture starts after
// fileset preparation, so the trace holds exactly the workload's ops
// with issue times relative to capture start.
func RecordTraceBaseline(run Run) TraceRow {
	row := TraceRow{
		TraceCase: TraceCase{Label: "rec", Config: core.ConfigD}, Baseline: true,
		ScheduleMatch: true, SequenceMatch: true,
	}
	r, conts := newTraceRig(row.TraceCase, run)
	tb, rec := r.tb, r.tb.Obs

	capRec := trace.NewRecorder("D", 0)
	r.runMaster(func(p *sim.Proc) {
		prepTraceFiles(p, r, conts, run.Scale)

		clock := run.Clock(tb.Eng)
		capRec.SetBase(tb.Eng.Now())
		capRec.Attach(rec)

		g := workloads.NewGroup(tb.Eng)
		prods := make([]*workloads.Production, len(conts))
		for i, c := range conts {
			w := &workloads.Production{
				FS: c.Mount.Default, Dir: "/prod",
				Files: traceFiles, FileSize: traceFileSize(run.Scale), OpSize: traceOpSize,
				Users: traceUsers, PeakRate: tracePeakRate,
				Diurnal:   workloads.Diurnal{Period: run.Duration, Trough: 0.3},
				Seed:      int64(1000 + i),
				NewThread: c.NewThread,
			}
			prods[i] = w
			w.Run(g, clock)
		}
		g.Wait(p)
		row.Trace = capRec.Snapshot()

		for i, w := range prods {
			tenant := fmt.Sprintf("fls%d", i)
			for _, cs := range w.PerClass {
				row.Classes = append(row.Classes, TraceClassRow{
					Name: tenant + "/" + cs.Name, Target: cs.Target,
					Tail: trace.TailOf(cs.Stats.Latency), Violations: cs.Violations,
				})
			}
		}
	})

	row.Ops = len(row.Trace.Ops)
	for i := range row.Trace.Ops {
		if row.Trace.Ops[i].Err {
			row.Errors++
		}
	}
	tails := row.Trace.TenantTails()
	for _, tenant := range row.Trace.Tenants() {
		row.Tenants = append(row.Tenants, TraceTenantRow{
			Tenant: tenant, Tail: tails[tenant], RatioP99: 1, RatioP999: 1,
		})
	}
	row.Buckets = perRequestBuckets(blame.Analyze("rec", rec))
	return row
}

// ReplayTraceUnder replays a recorded trace against the case's
// configuration on a fresh testbed with an identically prepared
// fileset, and reports tail latency and blame against the recording;
// the row's Trace is the replay's re-recorded trace.
func ReplayTraceUnder(t *trace.Trace, c TraceCase, run Run) TraceRow {
	r, conts := newTraceRig(c, run)
	tb, rec := r.tb, r.tb.Obs
	row := TraceRow{TraceCase: c}

	bindings := map[string]trace.Binding{}
	for i, cont := range conts {
		bindings[fmt.Sprintf("fls%d", i)] = trace.Binding{
			FS: cont.Mount.Default, NewThread: cont.NewThread,
		}
	}

	var stats *trace.ReplayStats
	r.runMaster(func(p *sim.Proc) {
		prepTraceFiles(p, r, conts, run.Scale)
		row.Trace, stats = trace.Replay(p, tb.Eng, t, c.Label,
			func(tenant string) (trace.Binding, bool) {
				b, ok := bindings[tenant]
				return b, ok
			})
	})

	row.Ops, row.Errors, row.Skipped = stats.Ops, stats.Errors, stats.Skipped
	d := trace.Compare(t, row.Trace)
	row.ScheduleMatch = d.ScheduleEqual
	row.SequenceMatch = d.SequenceEqual
	for _, tr := range d.TenantRows() {
		row.Tenants = append(row.Tenants, TraceTenantRow{
			Tenant: tr.Tenant, Tail: tr.B,
			RatioP99: tr.RatioP99(), RatioP999: tr.RatioP999(),
		})
	}
	row.Buckets = perRequestBuckets(blame.Analyze(c.Label, rec))
	return row
}

// RunTraceSweep records the baseline and replays it under every case,
// filling per-tenant tail ratios and the dominant blame-bucket shift
// against the recording. The baseline row comes first.
func RunTraceSweep(run Run) []TraceRow {
	base := RecordTraceBaseline(run)
	rows := []TraceRow{base}
	for _, c := range TraceCases() {
		row := ReplayTraceUnder(base.Trace, c, run)
		row.ShiftBucket, row.ShiftPerReq = bucketShift(base.Buckets, row.Buckets)
		rows = append(rows, row)
	}
	return rows
}

// perRequestBuckets folds a blame report into host-wide per-request
// bucket durations, sorted by name.
func perRequestBuckets(rep blame.Report) []blame.Bucket {
	total := map[string]time.Duration{}
	requests := 0
	for _, t := range rep.Tenants {
		requests += t.Requests
		for _, b := range t.Buckets {
			total[b.Name] += b.Dur
		}
	}
	if requests == 0 {
		return nil
	}
	out := make([]blame.Bucket, 0, len(total))
	for name, dur := range total {
		out = append(out, blame.Bucket{Name: name, Dur: dur / time.Duration(requests)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// bucketShift returns the bucket whose per-request duration moved most
// between the baseline and the replay, and the signed delta.
func bucketShift(base, replay []blame.Bucket) (string, time.Duration) {
	names := map[string]bool{}
	for _, b := range base {
		names[b.Name] = true
	}
	for _, b := range replay {
		names[b.Name] = true
	}
	var topName string
	var topDelta time.Duration
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		delta := blame.BucketDur(replay, n) - blame.BucketDur(base, n)
		abs := delta
		if abs < 0 {
			abs = -abs
		}
		top := topDelta
		if top < 0 {
			top = -top
		}
		if abs > top {
			topName, topDelta = n, delta
		}
	}
	return topName, topDelta
}

// Violations checks the replay invariants on the row: no recorded
// tenant may be unbound, every replay must preserve the per-stream op
// sequence, and the identity replay must reproduce the recorded
// schedule byte-identically.
func (r TraceRow) Violations() []string {
	if r.Baseline {
		return nil
	}
	var v []string
	if r.Skipped > 0 {
		v = append(v, fmt.Sprintf("tracesweep %s: %d ops skipped (unbound tenant)", r.Label, r.Skipped))
	}
	if !r.SequenceMatch {
		v = append(v, fmt.Sprintf("tracesweep %s: replay reordered or rewrote the op sequence", r.Label))
	}
	if r.Identity && !r.ScheduleMatch {
		v = append(v, fmt.Sprintf("tracesweep %s: identity replay diverged from the recorded schedule", r.Label))
	}
	return v
}

// String renders a row for the harness.
func (r TraceRow) String() string {
	var b strings.Builder
	if r.Baseline {
		fmt.Fprintf(&b, "%-6s %-4s            ops=%-6d err=%-4d", r.Label, r.Config, r.Ops, r.Errors)
		for _, t := range r.Tenants {
			fmt.Fprintf(&b, " | %s p50=%-9v p99=%-9v p999=%v",
				t.Tenant, t.Tail.P50.Round(time.Microsecond),
				t.Tail.P99.Round(time.Microsecond), t.Tail.P999.Round(time.Microsecond))
		}
		for _, c := range r.Classes {
			fmt.Fprintf(&b, " | %s p99=%v slo=%v viol=%d/%d",
				c.Name, c.Tail.P99.Round(time.Microsecond), c.Target, c.Violations, c.Tail.Count)
		}
		return b.String()
	}
	adm := "off"
	if r.Admission {
		adm = "on"
	}
	match := func(m bool) string {
		if m {
			return "match"
		}
		return "DRIFT"
	}
	fmt.Fprintf(&b, "%-6s %-4s adm=%-3s ops=%-6d err=%-4d skip=%d sched=%s seq=%s",
		r.Label, r.Config, adm, r.Ops, r.Errors, r.Skipped,
		match(r.ScheduleMatch), match(r.SequenceMatch))
	for _, t := range r.Tenants {
		fmt.Fprintf(&b, " | %s p99=%-9v x%-5.2f p999=%-9v x%-5.2f",
			t.Tenant, t.Tail.P99.Round(time.Microsecond), t.RatioP99,
			t.Tail.P999.Round(time.Microsecond), t.RatioP999)
	}
	if r.ShiftBucket != "" {
		fmt.Fprintf(&b, " | shift %s %+v/req", r.ShiftBucket, r.ShiftPerReq.Round(time.Microsecond))
	}
	return b.String()
}

// traceSweepFiles exports the sweep's baseline recording (the first
// row) as tracesweep-baseline.trace and every replay's diff against it
// as tracesweep-diff.csv, whose leading column names the replay case.
func traceSweepFiles(rows []Row) []File {
	base := rows[0].(TraceRow).Trace
	return []File{
		{Name: "tracesweep-baseline.trace", Write: base.Write},
		{Name: "tracesweep-diff.csv", Write: func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "replay,"+trace.DiffCSVHeader); err != nil {
				return err
			}
			for _, row := range rows[1:] {
				replay := row.(TraceRow).Trace
				if err := trace.Compare(base, replay).WriteCSVRows(w, replay.Label); err != nil {
					return err
				}
			}
			return nil
		}},
	}
}
