// Package allocgate is the simulator's hot-path performance gate: heap
// allocations per operation, counted exactly. Unlike ns/op, the count
// is the same on every host, so a Tier-1 test can hold an
// allocation-free path at 0 without host-scaled anchors; wall-clock
// claims belong to the bench module's recorded runs.
//
// Each gated path is written once as a Body and shared by its Go
// benchmark (Bench) and its package's allocation test (Check).
package allocgate

import (
	"runtime"
	"testing"
)

// Body sets up n operations of a benchmark and returns the part to
// measure. Allocations made in set-up stay outside run.
type Body func(n int) (run func())

// Share returns worker i's share of n operations split across workers
// workers. A body that spreads its operations over several processes
// must run exactly n in all, or extra's difference would not be n ops.
func Share(n, workers, i int) int {
	if i < n%workers {
		return n/workers + 1
	}
	return n / workers
}

// Bench runs body as a benchmark of b.N operations, timing only run.
func Bench(b *testing.B, body Body) {
	run := body(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	run()
}

// extra returns body's heap allocations for n operations beyond its
// fixed costs: after one warm-up run of n operations, mallocs(2n) -
// mallocs(n), so run's goroutine start and queue and pool growth
// cancel. body must run exactly n operations (see Share).
func extra(body Body, n int) int64 {
	body(n)()
	return mallocs(body, 2*n) - mallocs(body, n)
}

func mallocs(body Body, n int) int64 {
	run := body(n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}

// Case is one gated benchmark body.
type Case struct {
	Name string
	Body Body
	N    int   // operations per measured run
	Max  int64 // allocs/op ceiling: 0 holds the path allocation-free
}

// Check fails t for every case that allocates more than Max per op over
// N ops, plus a slack of one allocation per 100 ops in all. The slack
// is counted, not divided: an allocation-free path may make a few
// amortised ones (a queue growing, a telemetry window closing every
// 1000 ops), but one allocation every second op fails.
func Check(t *testing.T, cases []Case) {
	t.Helper()
	for _, c := range cases {
		got := extra(c.Body, c.N)
		limit := c.Max*int64(c.N) + int64(c.N)/100
		t.Logf("%s: %d allocs over %d ops (%.4f/op)", c.Name, got, c.N, float64(got)/float64(c.N))
		if got > limit {
			t.Errorf("%s: %d allocs over %d ops (%.4f/op), want at most %d", c.Name, got, c.N, float64(got)/float64(c.N), limit)
		}
	}
}
