package fuzz

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/blame"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// Outcome bundles the runs of one scenario for the checkers: the run
// itself, its byte-identical replay, and (when the scenario has
// co-tenants) the solo isolation baseline.
type Outcome struct {
	Scenario Scenario
	Full     *Result
	Replay   *Result
	Solo     *Result
	// TraceRuns holds the two clean-testbed replays of the captured op
	// trace (empty unless the scenario has the TraceReplay dimension).
	TraceRuns []TraceReplayRun
}

// Violation is one invariant breach found in an outcome.
type Violation struct {
	Checker string
	Detail  string
}

func (v Violation) String() string { return v.Checker + ": " + v.Detail }

// Checker is one machine-verifiable invariant run against every
// scenario outcome. Check returns one detail string per breach.
type Checker struct {
	Name  string
	Check func(o *Outcome) []string
}

// Checkers returns the invariant registry, in reporting order.
func Checkers() []Checker {
	return []Checker{
		{Name: "zero-data-loss", Check: checkDataLoss},
		{Name: "blame-sum", Check: checkBlameSum},
		{Name: "span-leak", Check: checkSpanLeak},
		{Name: "replay-determinism", Check: checkReplay},
		{Name: "isolation-bound", Check: checkIsolation},
		{Name: "fault-accounting", Check: checkFaultAccounting},
		{Name: "bounded-queue", Check: checkBoundedQueue},
		{Name: "admission-accounting", Check: checkAdmissionAccounting},
		{Name: "crash-consistency", Check: checkCrashConsistency},
		{Name: "trace-replay-determinism", Check: checkTraceReplay},
		{Name: "telemetry-consistency", Check: checkTelemetry},
	}
}

// checkTelemetry: with the telemetry dimension active, the monitor must
// have seen ops, its windowed per-(tenant, op) sums must equal the
// metrics registry's facade counters exactly (same events, counted once
// each, through two independent pipelines), and the exported telemetry
// artifacts must be byte-identical across the replay.
func checkTelemetry(o *Outcome) []string {
	if !o.Scenario.Telemetry {
		return nil
	}
	var out []string
	for _, lr := range o.runs() {
		label, r := lr.label, lr.res
		if len(r.TelTotals) == 0 {
			out = append(out, label+": telemetry monitor attached but saw no ops")
			continue
		}
		if r.TelWindows == 0 {
			out = append(out, label+": telemetry monitor closed no windows")
		}
		bad := 0
		for _, d := range diffOpCounts(r.TelTotals, r.TelRegistry) {
			bad++
			if bad <= 3 {
				out = append(out, label+": "+d)
			}
		}
		if bad > 3 {
			out = append(out, fmt.Sprintf("%s: ... and %d more telemetry count mismatches", label, bad-3))
		}
	}
	if o.Replay != nil && o.Full.TelHash != o.Replay.TelHash {
		out = append(out, fmt.Sprintf("telemetry artifacts diverged between run and replay: %s vs %s",
			o.Full.TelHash[:12], o.Replay.TelHash[:12]))
	}
	return out
}

// diffOpCounts compares the monitor-side and registry-side aggregates
// entry by entry. Both slices are sorted by (tenant, op), so a merge
// walk names every entry missing from one side as well as every
// counter mismatch.
func diffOpCounts(mon, reg []TelOpCount) []string {
	var out []string
	i, j := 0, 0
	for i < len(mon) || j < len(reg) {
		switch {
		case j >= len(reg) || (i < len(mon) && (mon[i].Tenant < reg[j].Tenant ||
			(mon[i].Tenant == reg[j].Tenant && mon[i].Op < reg[j].Op))):
			out = append(out, fmt.Sprintf("%s/%s: monitor counted %d ops the registry never saw",
				mon[i].Tenant, mon[i].Op, mon[i].Ops))
			i++
		case i >= len(mon) || mon[i].Tenant != reg[j].Tenant || mon[i].Op != reg[j].Op:
			out = append(out, fmt.Sprintf("%s/%s: registry counted %d ops the monitor never saw",
				reg[j].Tenant, reg[j].Op, reg[j].Ops))
			j++
		default:
			if mon[i] != reg[j] {
				out = append(out, fmt.Sprintf("%s/%s: monitor %d ops/%d err/%d B/mean %v != registry %d ops/%d err/%d B/mean %v",
					mon[i].Tenant, mon[i].Op,
					mon[i].Ops, mon[i].Errors, mon[i].Bytes, mon[i].Mean,
					reg[j].Ops, reg[j].Errors, reg[j].Bytes, reg[j].Mean))
			}
			i++
			j++
		}
	}
	return out
}

// checkTraceReplay: with the trace dimension active, the run must have
// captured ops, the rerun must capture a byte-identical trace, and the
// two clean-testbed replays of the capture must produce identical
// schedules while preserving the recorded per-stream op sequence with
// nothing skipped.
func checkTraceReplay(o *Outcome) []string {
	if !o.Scenario.TraceReplay {
		return nil
	}
	var out []string
	if o.Full.TraceOps == 0 {
		out = append(out, "trace capture recorded no ops")
	}
	if o.Replay != nil && o.Full.TraceHash != o.Replay.TraceHash {
		out = append(out, fmt.Sprintf("captured trace diverged between run and rerun: %s vs %s",
			o.Full.TraceHash[:12], o.Replay.TraceHash[:12]))
	}
	if len(o.TraceRuns) == 2 && o.TraceRuns[0].Hash != o.TraceRuns[1].Hash {
		out = append(out, fmt.Sprintf("two replays of one trace produced different schedules: %s vs %s",
			o.TraceRuns[0].Hash[:12], o.TraceRuns[1].Hash[:12]))
	}
	for i, r := range o.TraceRuns {
		if r.Skipped > 0 {
			out = append(out, fmt.Sprintf("replay %d skipped %d ops (unbound tenant)", i, r.Skipped))
		}
		if !r.SequenceOK {
			out = append(out, fmt.Sprintf("replay %d reordered or rewrote the recorded op sequence", i))
		}
	}
	return out
}

// checkCrashConsistency: a scheduled client crash must actually happen
// and recover, and the durability contract must hold across it — the
// WAL size visible through a fresh post-recovery handle covers every
// byte fsync acknowledged. Un-synced appends may vanish (that is the
// crash model), but acknowledged data may not.
func checkCrashConsistency(o *Outcome) []string {
	if o.Scenario.Crash == "" {
		return nil
	}
	var out []string
	for _, lr := range o.runs() {
		label, r := lr.label, lr.res
		if r.CrashEvents == 0 {
			out = append(out, fmt.Sprintf("%s: crash scheduled (%s) but no crash event recorded",
				label, o.Scenario.Crash))
			continue
		}
		if r.CrashRecovered != r.CrashEvents {
			out = append(out, fmt.Sprintf("%s: %d crash(es) but only %d recovered",
				label, r.CrashEvents, r.CrashRecovered))
		}
		if r.CrashAffected == 0 {
			out = append(out, fmt.Sprintf("%s: crash event with empty blast radius", label))
		}
		if lost := workloads.AckedLoss(r.AckedBytes, r.RemountSize); lost > 0 {
			out = append(out, fmt.Sprintf("%s: remounted WAL is %d bytes but fsync acknowledged %d (lost %d acked bytes)",
				label, r.RemountSize, r.AckedBytes, lost))
		}
	}
	return out
}

// checkBoundedQueue: no pool's admission queue may ever exceed its
// configured cap — the backpressure bound that load shedding exists to
// enforce.
func checkBoundedQueue(o *Outcome) []string {
	var out []string
	for _, lr := range o.runs() {
		for _, a := range lr.res.Admission {
			if err := a.Stats.CheckBound(a.QueueCap); err != nil {
				out = append(out, fmt.Sprintf("%s: pool %s %v", lr.label, a.Tenant, err))
			}
		}
	}
	return out
}

// checkAdmissionAccounting: every operation offered to a pool's
// admission controller must be accounted exactly once — admitted, shed,
// or still in flight at drain (which itself must be zero once the
// engine has drained every workload).
func checkAdmissionAccounting(o *Outcome) []string {
	var out []string
	for _, lr := range o.runs() {
		for _, a := range lr.res.Admission {
			if err := a.Stats.CheckLedger(); err != nil {
				out = append(out, fmt.Sprintf("%s: pool %s %v", lr.label, a.Tenant, err))
			}
			if a.Stats.InFlight != 0 || a.Stats.Queued != 0 {
				out = append(out, fmt.Sprintf("%s: pool %s drained with %d in flight, %d queued",
					lr.label, a.Tenant, a.Stats.InFlight, a.Stats.Queued))
			}
		}
	}
	return out
}

// CheckAll runs the full registry over an outcome.
func CheckAll(o *Outcome) []Violation {
	var out []Violation
	for _, c := range Checkers() {
		for _, d := range c.Check(o) {
			out = append(out, Violation{Checker: c.Name, Detail: d})
		}
	}
	return out
}

// checkDataLoss: bytes the victim's fsync acknowledged must be
// reconstructible from the cluster (live objects plus backfill logs)
// once every fault window has disarmed — the client never acks
// unpersisted data, at any replication level.
func checkDataLoss(o *Outcome) []string {
	var out []string
	for _, lr := range o.runs() {
		label, r := lr.label, lr.res
		if lost := workloads.AckedLoss(r.AckedBytes, r.StoredBytes); lost > 0 {
			out = append(out, fmt.Sprintf("%s: acked %d bytes but cluster stores %d (lost %d)",
				label, r.AckedBytes, r.StoredBytes, lost))
		}
	}
	return out
}

// checkBlameSum: every traced request's blame buckets must sum exactly
// to its span duration, with no negative bucket (the "other" residual
// in particular must never go negative — a negative residual means the
// engine attributed overlapping waits to one span).
func checkBlameSum(o *Outcome) []string {
	var out []string
	for _, lr := range o.runs() {
		label, r := lr.label, lr.res
		bad := 0
		for _, req := range r.Report.PerRequest {
			var sum time.Duration
			var negative string
			for _, b := range req.Buckets {
				sum += b.Dur
				if b.Dur < 0 && negative == "" {
					negative = b.Name
				}
			}
			if sum != req.Dur || negative != "" {
				bad++
				if bad <= 3 {
					out = append(out, fmt.Sprintf("%s: span %d (%s/%s): buckets sum %v vs dur %v, negative=%q other=%v",
						label, req.Span, req.Tenant, req.Op, sum, req.Dur, negative,
						blame.BucketDur(req.Buckets, blame.BucketOther)))
				}
			}
		}
		if bad > 3 {
			out = append(out, fmt.Sprintf("%s: ... and %d more blame-sum breaches", label, bad-3))
		}
	}
	return out
}

// checkSpanLeak: the span ledger must be empty at engine drain — a
// leaked span means an instrumentation point lost an End on some path.
func checkSpanLeak(o *Outcome) []string {
	var out []string
	for _, lr := range o.runs() {
		label, r := lr.label, lr.res
		if n := len(r.Leaked); n > 0 {
			out = append(out, fmt.Sprintf("%s: %d leaked span(s): %s", label, n, r.Leaked[0]))
		}
	}
	return out
}

// checkReplay: the same scenario must replay to byte-identical
// artifacts and an identical summary digest.
func checkReplay(o *Outcome) []string {
	if o.Replay == nil {
		return nil
	}
	var out []string
	if o.Full.ArtifactHash != o.Replay.ArtifactHash {
		out = append(out, fmt.Sprintf("artifact hash diverged: %s vs %s",
			o.Full.ArtifactHash[:12], o.Replay.ArtifactHash[:12]))
	}
	if o.Full.Summary != o.Replay.Summary {
		out = append(out, fmt.Sprintf("summary diverged: %q vs %q", o.Full.Summary, o.Replay.Summary))
	}
	return out
}

// isolationFloorOps is the minimum sample size before the isolation
// bound is meaningful.
const isolationFloorOps = 5

// IsolationBound predicts the worst victim mean latency the
// architecture model tolerates under the scenario, given the solo
// baseline mean: a multiplicative share factor for every party that
// can contend on the shared layers (co-tenant pools; doubled on
// kernel-client paths where the page cache, flusher pool and kernel
// locks are shared — Fig 1's point), plus the scheduled fault time
// (one operation can stall for at most the armed windows) and fixed
// slack for retry backoff granularity.
func IsolationBound(sc Scenario, solo time.Duration) time.Duration {
	mult := time.Duration(2 * (1 + len(sc.Tenants)))
	if !sc.Config.UserLevelClient() {
		mult *= 2
	}
	bound := solo*mult + scheduledFaultTime(sc) + 10*time.Millisecond
	return bound
}

// scheduledFaultTime sums the scenario's fault window lengths,
// including the crash window — a crashed client is down (and its
// recovery cold) for at least that long.
func scheduledFaultTime(sc Scenario) time.Duration {
	entries := sc.ScheduleWindows()
	if sc.Crash != "" {
		entries = append(entries, sc.Crash)
	}
	var total time.Duration
	for _, entry := range entries {
		span := entry[strings.LastIndex(entry, ":")+1:]
		start, end, ok := strings.Cut(span, "-")
		if !ok {
			continue
		}
		s, err1 := time.ParseDuration(start)
		e, err2 := time.ParseDuration(end)
		if err1 == nil && err2 == nil && e > s {
			total += e - s
		}
	}
	return total
}

// checkIsolation: with co-tenants present, the victim's mean latency
// must stay within the model-predicted bound of its solo baseline.
func checkIsolation(o *Outcome) []string {
	if o.Solo == nil {
		return nil
	}
	var out []string
	check := func(kind string, full, fullOps, solo, soloOps int64) {
		if fullOps < isolationFloorOps || soloOps < isolationFloorOps {
			return
		}
		bound := IsolationBound(o.Scenario, time.Duration(solo))
		if time.Duration(full) > bound {
			out = append(out, fmt.Sprintf("%s mean %v exceeds bound %v (solo %v, %d tenants)",
				kind, time.Duration(full), bound, time.Duration(solo), len(o.Scenario.Tenants)))
		}
	}
	check("write", int64(o.Full.WriteMean), int64(o.Full.WriteOps), int64(o.Solo.WriteMean), int64(o.Solo.WriteOps))
	check("read", int64(o.Full.ReadMean), int64(o.Full.ReadOps), int64(o.Solo.ReadMean), int64(o.Solo.ReadOps))
	return out
}

// checkFaultAccounting: without a fault schedule (and without a crash,
// whose recovery retries are legitimate) no fault-handling activity may
// be counted, and the registry's harvested per-tenant fault aggregate
// must equal the direct per-mount sum (each shared client or kernel
// mount counted exactly once).
func checkFaultAccounting(o *Outcome) []string {
	var out []string
	for _, lr := range o.runs() {
		label, r := lr.label, lr.res
		if o.Scenario.Schedule == "" && o.Scenario.Crash == "" && r.Faults != (metrics.FaultCounters{}) {
			out = append(out, fmt.Sprintf("%s: fault counters without a schedule: %+v", label, r.Faults))
		}
		if r.RegistryFaults != r.Faults {
			out = append(out, fmt.Sprintf("%s: registry faults %+v != mount faults %+v",
				label, r.RegistryFaults, r.Faults))
		}
	}
	return out
}

// labeledResult names one run of an outcome.
type labeledResult struct {
	label string
	res   *Result
}

// runs enumerates the outcome's non-nil results in stable order (so
// violation details are deterministic).
func (o *Outcome) runs() []labeledResult {
	var out []labeledResult
	if o.Full != nil {
		out = append(out, labeledResult{"full", o.Full})
	}
	if o.Replay != nil {
		out = append(out, labeledResult{"replay", o.Replay})
	}
	if o.Solo != nil {
		out = append(out, labeledResult{"solo", o.Solo})
	}
	return out
}
