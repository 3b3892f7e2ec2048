package cpu

import (
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// BenchmarkExecCoalescedUncontended measures a long Exec on an idle
// host: the quantum chain must coalesce the whole 10ms run into one
// park/resume round trip and stay allocation-free via the run pool.
func BenchmarkExecCoalescedUncontended(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 4)
	th := c.NewThread(NewAccount("bench"), 0)
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			th.Exec(p, User, 10*time.Millisecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkExecSubQuantum measures the short-Exec fast path (the IPC
// and syscall cost charges, far below one quantum).
func BenchmarkExecSubQuantum(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 4)
	th := c.NewThread(NewAccount("bench"), 0)
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			th.Exec(p, User, time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkExecContended time-shares one core between four threads, so
// every quantum boundary goes through the FIFO runqueue.
func BenchmarkExecContended(b *testing.B) {
	benchContended(b, 2*time.Millisecond)
}

// BenchmarkExecContendedSubQuantum time-shares one core between four
// threads issuing 1µs Execs, so every Exec queues for the core: the
// pattern of 16 service threads on a pool's 2 cores in Seqread.
func BenchmarkExecContendedSubQuantum(b *testing.B) {
	benchContended(b, time.Microsecond)
}

// BenchmarkExecChainContended time-shares one core between four
// threads, each issuing the app-entry charges of a FUSE request as one
// Chain (mode switch, 1µs of kernel work, context switch), so every
// step queues for the core. One op is one chain.
func BenchmarkExecChainContended(b *testing.B) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 1)
	acct := NewAccount("bench")
	const threads = 4
	per := b.N/threads + 1
	for i := 0; i < threads; i++ {
		th := c.NewThread(acct, MaskOf(0))
		eng.Go("bench", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				th.Chain(p, th.ModeSwitchStep(), Charge(Kernel, time.Microsecond), th.ContextSwitchStep())
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

func benchContended(b *testing.B, d time.Duration) {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 1)
	acct := NewAccount("bench")
	const threads = 4
	per := b.N/threads + 1
	for i := 0; i < threads; i++ {
		th := c.NewThread(acct, MaskOf(0))
		eng.Go("bench", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				th.Exec(p, User, d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
