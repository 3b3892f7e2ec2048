package experiments

import (
	"testing"

	"repro/internal/faults"
)

// TestCrashSweepContainment runs the whole crash-sweep family at quick
// scale and asserts the paper's blast-radius claim row by row through
// the same invariant checker the harness uses: a Danaus libservice or
// FUSE daemon crash degrades only the crashed tenant, a kernel-client
// crash interrupts every pool on the host, recovery completes, and no
// fsync-acknowledged byte is lost.
func TestCrashSweepContainment(t *testing.T) {
	for _, c := range CrashSweepCases() {
		row := RunCrashSweep(c, Run{Scale: QuickScale})
		for _, v := range row.Violations() {
			t.Error(v)
		}
		if row.VictimRepair <= 0 {
			t.Errorf("%s: victim never completed an operation after the crash", c.Label)
		}
		if row.Kind != faults.HostCrash && row.BystanderMBps == 0 {
			t.Errorf("%s: bystander made no progress", c.Label)
		}
	}
}

// TestCrashSweepDeterminism re-runs the same crash-sweep case twice and
// requires byte-identical rows: the crash schedule, the recovery
// protocol, and every probe around them replay exactly under the
// deterministic engine.
func TestCrashSweepDeterminism(t *testing.T) {
	for _, c := range CrashSweepCases() {
		a := RunCrashSweep(c, Run{Scale: QuickScale}).String()
		b := RunCrashSweep(c, Run{Scale: QuickScale}).String()
		if a != b {
			t.Errorf("%s: same-seed runs diverge:\n  %s\n  %s", c.Label, a, b)
		}
	}
}
