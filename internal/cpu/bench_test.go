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

// BenchmarkExecSubQuantum measures a short Exec on an idle core (the
// IPC and syscall cost charges, far below one quantum): one pooled run
// whose only event is the wake that ends its slice.
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

// BenchmarkExecContendedManyMasks runs eight pools of three threads,
// each pool pinned to its own two cores of a 16-core host, plus one
// thread roaming all cores, all issuing 1µs Execs: the shape of an
// 8-pool Seqwrite with a kernel flusher, where runs of many masks queue
// at once.
func BenchmarkExecContendedManyMasks(b *testing.B) {
	allocgate.Bench(b, execContendedManyMasks)
}

func execContendedManyMasks(n int) func() {
	const pools, perPool = 8, 3
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 2*pools)
	var threads []*Thread
	for pool := 0; pool < pools; pool++ {
		acct := NewAccount("pool")
		for range perPool {
			threads = append(threads, c.NewThread(acct, MaskRange(2*pool, 2*pool+2)))
		}
	}
	threads = append(threads, c.NewThread(NewAccount("flusher"), 0))
	for i, th := range threads {
		per := allocgate.Share(n, len(threads), i)
		eng.Go("bench", func(p *sim.Proc) {
			for range per {
				th.Exec(p, User, time.Microsecond)
			}
		})
	}
	return eng.Run
}

// BenchmarkExecRepinQueued has four threads issuing 1µs Execs on a
// 2-core host while a callback repins one of them every 500ns between
// core 0 and both cores, so most repins move queued runs between the
// two masks' queues. Every mask holds core 0, so no run is stranded.
func BenchmarkExecRepinQueued(b *testing.B) { allocgate.Bench(b, execRepinQueued) }

func execRepinQueued(n int) func() {
	eng := sim.NewEngine()
	c := New(eng, model.Default(), 2)
	acct := NewAccount("bench")
	masks := [2]Mask{MaskOf(0), MaskOf(0, 1)}
	threads := make([]*Thread, 4)
	for i := range threads {
		th := c.NewThread(acct, masks[0])
		threads[i] = th
		per := allocgate.Share(n, len(threads), i)
		eng.Go("bench", func(p *sim.Proc) {
			for range per {
				th.Exec(p, User, time.Microsecond)
			}
		})
	}
	tick := 0
	var repin func()
	repin = func() {
		tick++
		threads[tick%len(threads)].SetAffinity(masks[tick/len(threads)%2])
		if eng.LiveProcs() > 0 {
			eng.After(500*time.Nanosecond, repin)
		}
	}
	eng.After(0, repin)
	return eng.Run
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
