package workloads

import (
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// Scale selects experiment sizing. The discrete-event model preserves
// contention shape under scaling, so the default test scale runs in
// seconds of wall time while PaperScale matches the published
// parameters. The harness experiments and the scenario fuzzer both
// size their testbeds and windows from it.
type Scale struct {
	// Factor scales dataset sizes (files, bytes).
	Factor float64
	// Duration is the measured window of timed workloads.
	Duration time.Duration
	// Warmup precedes measurement.
	Warmup time.Duration
}

// Predefined scales.
var (
	// QuickScale is for unit tests and -short benchmarks.
	QuickScale = Scale{Factor: 0.02, Duration: 2 * time.Second, Warmup: 500 * time.Millisecond}
	// DefaultScale balances fidelity and wall time for the harness.
	DefaultScale = Scale{Factor: 0.1, Duration: 8 * time.Second, Warmup: time.Second}
	// PaperScale matches the paper's parameters (120 s runs).
	PaperScale = Scale{Factor: 1.0, Duration: 120 * time.Second, Warmup: 5 * time.Second}
)

// PoolMem returns the pool memory reservation at the given scale. The
// paper reserves 8 GB per pool; scaling it with the datasets keeps the
// dirty-threshold and cache-pressure dynamics inside short windows.
func (s Scale) PoolMem() int64 {
	m := int64(float64(8<<30) * s.Factor)
	if m < 128<<20 {
		m = 128 << 20
	}
	return m
}

// ColdSize is the size of a file that overflows a pool's cache (1.5x
// PoolMem), so sequential reads of it keep hitting the backend.
func (s Scale) ColdSize() int64 {
	return s.PoolMem() + s.PoolMem()/2
}

// Params derives a cost model whose writeback time constants are
// scaled with the experiment: preserving the ratio of file lifetime to
// the flusher intervals keeps the dirty-data dynamics of the paper's
// 120 s runs inside short windows.
func (s Scale) Params() *model.Params {
	p := model.Default()
	if s.Factor < 1 {
		// File lifetime in the Fileserver fileset scales with Factor,
		// so the writeback constants scale with it to preserve the
		// fraction of dirty data that lives long enough to be flushed.
		iv := time.Duration(float64(p.WritebackInterval) * s.Factor)
		if iv < 5*time.Millisecond {
			iv = 5 * time.Millisecond
		}
		if iv < p.WritebackInterval {
			p.WritebackInterval = iv
			p.DirtyExpire = 5 * iv
		}
	}
	return p
}

// Clock starts a measurement window of s.Duration after s.Warmup,
// counted from the engine's current time.
func (s Scale) Clock(eng *sim.Engine) Clock {
	now := eng.Now()
	return Clock{Eng: eng, From: now + s.Warmup, Stop: now + s.Warmup + s.Duration}
}
