package cluster

import (
	"testing"

	"repro/internal/allocgate"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// TestHotPathAllocs holds a first-try-success retrier run
// allocation-free: the attempt closure stays on the caller's stack.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "RetrierDo", Body: retrierDo, N: 10000},
	})
}

// BenchmarkRetrierDo measures the loop overhead of a backend data
// operation that succeeds on its first attempt, alternating bounded
// and blocking calls through a retrier with jitter and a breaker.
func BenchmarkRetrierDo(b *testing.B) { allocgate.Bench(b, retrierDo) }

func retrierDo(n int) func() {
	c := New(sim.NewEngine(), model.Default(), 6)
	c.SetReplication(2)
	var crashed, stopped bool
	r := c.NewRetrier(&crashed, &stopped, 1, func(from, to BreakerState) {})
	var ok int
	return func() {
		for i := 0; i < n; i++ {
			ino := uint64(i)
			if r.Do(vfsapi.Ctx{}, i%2 == 0, func(try, member int) error {
				if ino == 0 && member != 0 {
					return ErrOSDDown
				}
				return nil
			}) == nil {
				ok++
			}
		}
	}
}
