package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestFaultSweepRecovery drives the combined crash+spike+stall schedule
// against the replicated user-level client and asserts the robustness
// acceptance criteria: operations keep completing through failover,
// retries are bounded (no op errors out), recovery is observed inside
// the window, and no acknowledged byte is lost.
func TestFaultSweepRecovery(t *testing.T) {
	cases := FaultSweepCases(QuickScale)
	row := RunFaultSweep(cases[1], Run{Scale: QuickScale})
	if row.Config != core.ConfigD || row.Replication != 2 {
		t.Fatalf("unexpected case under test: %+v", row)
	}
	if row.VictimOps == 0 {
		t.Fatal("victim completed no operations")
	}
	if row.VictimErrors != 0 {
		t.Fatalf("replicated client surfaced %d op errors; want 0 (failover should absorb the crash)", row.VictimErrors)
	}
	if row.Faults.Retries == 0 {
		t.Fatal("no retries recorded under an OSD crash")
	}
	if row.Faults.Failovers == 0 {
		t.Fatal("no failovers recorded under an OSD crash with replication 2")
	}
	if row.RecoveryTime <= 0 {
		t.Fatal("no recovery observed after the fault armed")
	}
	if max := QuickScale.Duration; row.RecoveryTime > max {
		t.Fatalf("recovery took %v, longer than the whole window %v", row.RecoveryTime, max)
	}
	if row.DataLossBytes != 0 {
		t.Fatalf("lost %d acknowledged bytes; want 0", row.DataLossBytes)
	}
	if row.BystanderMBps == 0 {
		t.Fatal("bystander made no progress")
	}
}

// TestFaultSweepUnreplicatedLongCrash checks the bounded-retry error
// path: with replication 1 there is nowhere to fail over, so reads must
// give up at the op deadline with I/O errors and deadline misses, while
// the unbounded write path recovers once the OSD restarts.
func TestFaultSweepUnreplicatedLongCrash(t *testing.T) {
	cases := FaultSweepCases(QuickScale)
	row := RunFaultSweep(cases[3], Run{Scale: QuickScale})
	if row.Replication != 1 {
		t.Fatalf("unexpected case under test: %+v", row)
	}
	if row.VictimErrors == 0 {
		t.Fatal("unreplicated long crash produced no op errors; deadline bound is not firing")
	}
	if row.Faults.DeadlineMisses == 0 {
		t.Fatal("no deadline misses recorded")
	}
	if row.DataLossBytes != 0 {
		t.Fatalf("lost %d acknowledged bytes; want 0 (backfill must recover them)", row.DataLossBytes)
	}
}

// TestFaultSweepDeterminism runs the faulted case twice and requires
// byte-identical rows: the injector schedules on virtual time only.
func TestFaultSweepDeterminism(t *testing.T) {
	cases := FaultSweepCases(QuickScale)
	a := RunFaultSweep(cases[1], Run{Scale: QuickScale})
	b := RunFaultSweep(cases[1], Run{Scale: QuickScale})
	if a != b {
		t.Fatalf("fault sweep not deterministic:\n  run 1: %v\n  run 2: %v", a, b)
	}
	base1 := RunFaultSweep(cases[0], Run{Scale: QuickScale})
	base2 := RunFaultSweep(cases[0], Run{Scale: QuickScale})
	if base1 != base2 {
		t.Fatalf("baseline not deterministic:\n  run 1: %v\n  run 2: %v", base1, base2)
	}
}

// TestFaultSweepBaselineClean asserts the empty schedule perturbs
// nothing: no retries, no failovers, no errors, no loss.
func TestFaultSweepBaselineClean(t *testing.T) {
	row := RunFaultSweep(FaultSweepCases(QuickScale)[0], Run{Scale: QuickScale})
	if row.Faults != (FaultSweepRow{}.Faults) {
		t.Fatalf("baseline recorded fault activity: %+v", row.Faults)
	}
	if row.VictimErrors != 0 || row.DataLossBytes != 0 || row.RecoveryTime != 0 {
		t.Fatalf("baseline not clean: %v", row)
	}
}
