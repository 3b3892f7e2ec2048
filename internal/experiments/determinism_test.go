package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestExperimentsAreDeterministic verifies the headline property of the
// DES substrate: identical runs produce bit-identical results.
func TestExperimentsAreDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := InterferenceCase{Config: core.ConfigD, FLSCount: 1, Neighbor: "RND"}
	first := RunInterference(c, Run{Scale: QuickScale})
	for i := 0; i < 2; i++ {
		again := RunInterference(c, Run{Scale: QuickScale})
		if again != first {
			t.Fatalf("run %d diverged:\n  %+v\nvs\n  %+v", i+2, again, first)
		}
	}

	kv := RunKVScaleup(core.ConfigD, 2, PhasePut, Run{Scale: QuickScale})
	if again := RunKVScaleup(core.ConfigD, 2, PhasePut, Run{Scale: QuickScale}); again != kv {
		t.Fatalf("KV scaleup diverged:\n  %+v\nvs\n  %+v", again, kv)
	}

	st := RunStartupScaleup(core.ConfigFF, 4, Run{Scale: QuickScale})
	if again := RunStartupScaleup(core.ConfigFF, 4, Run{Scale: QuickScale}); again != st {
		t.Fatalf("startup diverged:\n  %+v\nvs\n  %+v", again, st)
	}
}
