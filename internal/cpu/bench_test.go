package cpu

import (
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/model"
	"repro/internal/sim"
)

// BenchmarkExecCoalescedUncontended measures a long Exec on an idle
// host: the quantum chain must coalesce the whole 10ms run into one
// park/resume round trip and stay allocation-free via the run pool.
func BenchmarkExecCoalescedUncontended(b *testing.B) {
	allocgate.Bench(b, execCoalescedUncontended)
}

func execCoalescedUncontended(n int) func() { return execIdle(n, 10*time.Millisecond) }

// BenchmarkExecSubQuantum measures the short-Exec fast path (the IPC
// and syscall cost charges, far below one quantum).
func BenchmarkExecSubQuantum(b *testing.B) { allocgate.Bench(b, execSubQuantum) }

func execSubQuantum(n int) func() { return execIdle(n, time.Microsecond) }

// execIdle issues n Execs of d from one thread on an idle 4-core host.
func execIdle(n int, d time.Duration) func() {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 4)
	th := c.NewThread(NewAccount("bench"), 0)
	eng.Go("bench", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			th.Exec(p, User, d)
		}
	})
	return eng.Run
}

// BenchmarkExecContended time-shares one core between four threads, so
// every quantum boundary goes through the FIFO runqueue.
func BenchmarkExecContended(b *testing.B) { allocgate.Bench(b, execContended) }

func execContended(n int) func() { return contended(n, 2*time.Millisecond) }

// BenchmarkExecContendedSubQuantum time-shares one core between four
// threads issuing 1µs Execs, so every Exec queues for the core: the
// pattern of 16 service threads on a pool's 2 cores in Seqread.
func BenchmarkExecContendedSubQuantum(b *testing.B) {
	allocgate.Bench(b, execContendedSubQuantum)
}

func execContendedSubQuantum(n int) func() { return contended(n, time.Microsecond) }

// BenchmarkExecChainContended time-shares one core between four
// threads, each issuing the app-entry charges of a FUSE request as one
// Chain (mode switch, 1µs of kernel work, context switch), so every
// step queues for the core. One op is one chain.
func BenchmarkExecChainContended(b *testing.B) { allocgate.Bench(b, execChainContended) }

func execChainContended(n int) func() {
	return onOneCore(sim.NewEngine(), n, func(th *Thread, p *sim.Proc) {
		th.Chain(p, th.ModeSwitchStep(), Charge(Kernel, time.Microsecond), th.ContextSwitchStep())
	})
}

// BenchmarkExecLockedChainContended has four threads on one core take
// one mutex, each as a LockedChain that charges 1µs under the lock and
// 1µs after releasing it (the shape of a client_lock'd copy), so every
// chain queues for the lock, the core or both. One op is one chain.
func BenchmarkExecLockedChainContended(b *testing.B) {
	allocgate.Bench(b, execLockedChainContended)
}

func execLockedChainContended(n int) func() {
	eng := sim.NewEngine()
	m := sim.NewMutex(eng, "bench")
	return onOneCore(eng, n, func(th *Thread, p *sim.Proc) {
		th.LockedChain(p, m, nil, "", Charge(User, time.Microsecond),
			Step{Kind: User, D: time.Microsecond, Unlock: m})
	})
}

// contended time-shares one core between four threads issuing Execs
// of d, n in all.
func contended(n int, d time.Duration) func() {
	return onOneCore(sim.NewEngine(), n, func(th *Thread, p *sim.Proc) { th.Exec(p, User, d) })
}

// onOneCore runs op n times in all on eng, split across four threads
// pinned to a single core.
func onOneCore(eng *sim.Engine, n int, op func(*Thread, *sim.Proc)) func() {
	c := New(eng, model.Default(), 1)
	acct := NewAccount("bench")
	const threads = 4
	for i := 0; i < threads; i++ {
		per := allocgate.Share(n, threads, i)
		th := c.NewThread(acct, MaskOf(0))
		eng.Go("bench", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				op(th, p)
			}
		})
	}
	return eng.Run
}
