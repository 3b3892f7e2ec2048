package experiments

import (
	"testing"
	"time"
)

// traceTestRun keeps the trace-sweep unit test fast: a short window
// still yields a few hundred recorded ops.
var traceTestRun = Run{Scale: Scale{Factor: 0.02, Duration: 800 * time.Millisecond, Warmup: 200 * time.Millisecond}}

// TestTraceSweepIdentityReplay is the acceptance check of the trace
// layer: recording a run and replaying it under the recorded
// configuration reproduces a byte-identical op schedule, and no sweep
// row violates the replay invariants.
func TestTraceSweepIdentityReplay(t *testing.T) {
	rows := RunTraceSweep(traceTestRun)
	if len(rows) != len(TraceCases())+1 {
		t.Fatalf("expected %d rows, got %d", len(TraceCases())+1, len(rows))
	}
	base := rows[0]
	if base.Ops == 0 {
		t.Fatal("baseline recorded no ops")
	}
	if len(base.Classes) == 0 {
		t.Fatal("baseline row carries no SLO class reports")
	}
	for _, row := range rows {
		for _, v := range row.Violations() {
			t.Error(v)
		}
	}
	for _, row := range rows[1:] {
		if row.Ops != base.Ops {
			t.Errorf("%s: replayed %d ops, recorded %d", row.Label, row.Ops, base.Ops)
		}
		if row.Trace.OpSequence() != base.Trace.OpSequence() {
			t.Errorf("%s: op sequence diverged from recording", row.Label)
		}
	}
	identity := rows[1]
	if !identity.Identity {
		t.Fatalf("first case is not the identity replay: %+v", identity.Label)
	}
	if got, want := identity.Trace.Schedule(), base.Trace.Schedule(); got != want {
		t.Errorf("identity replay schedule differs from recording (hash %s vs %s)",
			identity.Trace.ScheduleHash()[:12], base.Trace.ScheduleHash()[:12])
	}
}

// TestTraceReplayDeterminism replays the same recording twice under
// the same configuration and requires byte-identical results —
// latencies included, not just the schedule.
func TestTraceReplayDeterminism(t *testing.T) {
	base := RecordTraceBaseline(traceTestRun).Trace
	c := TraceCases()[0]
	a := ReplayTraceUnder(base, c, traceTestRun).Trace
	b := ReplayTraceUnder(base, c, traceTestRun).Trace
	if a.Schedule() != b.Schedule() {
		t.Error("two identical replays produced different schedules")
	}
	for i := range a.Ops {
		if a.Ops[i].Latency != b.Ops[i].Latency {
			t.Fatalf("op %d: latency %v vs %v across identical replays",
				i, a.Ops[i].Latency, b.Ops[i].Latency)
		}
	}
}
