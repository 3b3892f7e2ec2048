package trace

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/sim"
)

// TestReplayAllocs bounds the replay engine's allocations. The count is
// not exact: BenchmarkTraceReplay read 1076 to 1077 allocs/op before
// this gate existed, and the gate reads 1070 to 1099 (-race included),
// so the replay is held under a ceiling of 1150 rather than at a value.
func TestReplayAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "TraceReplay", Body: traceReplay, N: 4, Max: 1150},
	})
}

// BenchmarkTraceReplay measures the replay engine itself — per-stream
// scheduling, handle tracking, re-recording — against a fixed-cost
// stub filesystem, excluding the client-stack simulation cost.
func BenchmarkTraceReplay(b *testing.B) { allocgate.Bench(b, traceReplay) }

func traceReplay(n int) func() {
	const cost = 10 * time.Microsecond
	in := syntheticTrace(16, 40, cost) // 1920 ops
	return func() {
		for i := 0; i < n; i++ {
			fs := &nullFS{cost: cost}
			eng := sim.NewEngine()
			var stats *ReplayStats
			eng.Go("master", func(p *sim.Proc) {
				_, stats = Replay(p, eng, in, "bench", bindNull(fs))
			})
			eng.Run()
			if stats.Ops != len(in.Ops) {
				panic(fmt.Sprintf("replayed %d/%d ops", stats.Ops, len(in.Ops)))
			}
		}
	}
}
