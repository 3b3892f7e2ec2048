package fuzz

import (
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/core"
)

// TestScenarioRunAllocs bounds one fuzz pipeline run's allocations. The
// count is not exact: BenchmarkFuzzScenarioRun read 6021 to 6030
// allocs/op before this gate existed, and the gate reads 6014 to 6059
// (-race included), so a run is held under a ceiling of 6300 rather
// than at a value.
func TestScenarioRunAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "FuzzScenarioRun", Body: fuzzScenarioRun, N: 2, Max: 6300},
	})
}

// BenchmarkFuzzScenarioRun measures one fuzz pipeline run (testbed
// build, victim probe, invariant evidence collection): a sweep is N of
// these, so a hot-path regression here multiplies directly into the
// wall time of CI's fixed-seed sweep.
func BenchmarkFuzzScenarioRun(b *testing.B) { allocgate.Bench(b, fuzzScenarioRun) }

func fuzzScenarioRun(n int) func() {
	sc := Scenario{
		Seed:        1,
		Config:      core.ConfigK,
		Replication: 2,
		Factor:      0.01,
		CacheFrac:   2,
		Warmup:      10 * time.Millisecond,
		Duration:    30 * time.Millisecond,
	}
	return func() {
		for i := 0; i < n; i++ {
			RunScenario(sc, false)
		}
	}
}
