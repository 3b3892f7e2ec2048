package telemetry

import (
	"testing"
	"time"

	"repro/internal/allocgate"
)

// TestHotPathAllocs holds live aggregation allocation-free. A window
// close still allocates 4 objects (the new window's op aggregate, the
// tenant name list, and the SLO key sort), once per 1000 ops: 400 over
// the measured 100000, inside allocgate's slack of 1000.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "TelemetryWindow", Body: telemetryWindow, N: 100000},
	})
}

// BenchmarkTelemetryWindow measures the live-aggregation hot path: ops
// streaming through tumbling windows with an SLO monitor attached,
// including the window-close work (histogram quantiles and reset, totals fold, SLO
// evaluation). One iteration = one recorded op; windows close every
// 1000 ops.
func BenchmarkTelemetryWindow(b *testing.B) { allocgate.Bench(b, telemetryWindow) }

func telemetryWindow(n int) func() {
	m := New(Config{
		FastWindow: time.Millisecond,
		SlowWindow: 60 * time.Millisecond,
		MaxWindows: 64,
		SLOs:       []SLO{{Name: "p99", Target: 10 * time.Microsecond, Budget: 0.01}},
	})
	lat := []time.Duration{3 * time.Microsecond, 8 * time.Microsecond, 15 * time.Microsecond, 40 * time.Microsecond}
	return func() {
		for i := 0; i < n; i++ {
			now := time.Duration(i) * time.Microsecond
			m.RecordOp(now, "bench", "read", lat[i&3], 4096, i&63 == 0)
		}
	}
}
