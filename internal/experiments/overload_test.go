package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestOverloadCaseDeterminism runs the protected 4x case twice with
// identical seeds and requires byte-identical outcomes — in particular
// the shed counts, the acceptance criterion for reproducible
// load-shedding decisions.
func TestOverloadCaseDeterminism(t *testing.T) {
	c := OverloadCase{Label: "D+adm", Config: core.ConfigD, Protected: true, Multiplier: 4}
	a := RunOverloadCase(c, Run{Scale: QuickScale})
	b := RunOverloadCase(c, Run{Scale: QuickScale})
	if a != b {
		t.Fatalf("same-seed overload runs diverged:\n  %v\n  %v", a, b)
	}
	if a.Shed != b.Shed {
		t.Fatalf("shed counts diverged: %d vs %d", a.Shed, b.Shed)
	}
	if a.Offered == 0 {
		t.Fatalf("aggressor offered no load: %+v", a)
	}
}

// TestOverloadSweepQuick runs the full sweep at quick scale and checks
// the headline acceptance criteria: the protected client holds victim
// p99 within 2x of its unloaded baseline at 4x offered load, sheds a
// meaningful fraction there, and every row passes the overload
// invariants.
func TestOverloadSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("overload sweep is slow")
	}
	rows := RunOverloadSweep(Run{Scale: QuickScale})
	if len(rows) != 8 {
		t.Fatalf("want 8 rows, got %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s", r)
		for _, v := range r.Violations() {
			t.Errorf("invariant: %s", v)
		}
		if r.Multiplier > 0 && r.Offered == 0 {
			t.Errorf("%s %dx: no offered load", r.Label, r.Multiplier)
		}
		if r.Protected {
			if r.Multiplier == 4 && r.VictimP99Ratio > 2.0 {
				t.Errorf("protected victim p99 blew past 2x at 4x load: ratio %.2f", r.VictimP99Ratio)
			}
			if r.Multiplier == 4 && r.Shed == 0 {
				t.Errorf("protected client shed nothing at 4x load")
			}
		}
	}
}
