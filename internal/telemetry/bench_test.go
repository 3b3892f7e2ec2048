package telemetry

import (
	"testing"
	"time"
)

// BenchmarkTelemetryWindow measures the live-aggregation hot path: ops
// streaming through tumbling windows with an SLO monitor attached,
// including the window-close work (histogram quantiles and reset, totals fold, SLO
// evaluation). One iteration = one recorded op; windows close every
// 1000 ops. Gated by benchguard via ci/bench-baseline.txt.
func BenchmarkTelemetryWindow(b *testing.B) {
	m := New(Config{
		FastWindow: time.Millisecond,
		SlowWindow: 60 * time.Millisecond,
		MaxWindows: 64,
		SLOs:       []SLO{{Name: "p99", Target: 10 * time.Microsecond, Budget: 0.01}},
	})
	lat := []time.Duration{3 * time.Microsecond, 8 * time.Microsecond, 15 * time.Microsecond, 40 * time.Microsecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * time.Microsecond
		m.RecordOp(now, "bench", "read", lat[i&3], 4096, i&63 == 0)
	}
}
