package sim

import (
	"testing"
	"time"

	"repro/internal/allocgate"
)

// TestHotPathAllocs holds the engine, mutex and wait queue hot paths
// that the paper's contention mechanisms (i_mutex convoys, wakeups,
// timer churn) run through allocation-free once warm. WaitQueueSignalled
// counts about 10 allocations (the event queue's slab growing to hold 2n
// dead timeouts), the others 0.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "EngineSleepWake", Body: engineSleepWake, N: 10000},
		{Name: "EngineYield", Body: engineYield, N: 10000},
		{Name: "EngineProcSwitch", Body: engineProcSwitch, N: 10000},
		{Name: "EngineEventChurn", Body: engineEventChurn, N: 10000},
		{Name: "EngineEventChurnDeep", Body: engineEventChurnDeep, N: 10000},
		{Name: "EngineEventSpread", Body: engineEventSpread, N: 10000},
		{Name: "MutexUncontended", Body: mutexUncontended, N: 10000},
		{Name: "MutexContendedHandoff", Body: mutexContendedHandoff, N: 10000},
		{Name: "MutexCallbackHandoff", Body: mutexCallbackHandoff, N: 10000},
		{Name: "WaitQueueSignalled", Body: waitQueueSignalled, N: 10000},
		{Name: "WaitQueueTimedOut", Body: waitQueueTimedOut, N: 10000},
	})
}

func BenchmarkEngineSleepWake(b *testing.B) { allocgate.Bench(b, engineSleepWake) }

func engineSleepWake(n int) func() {
	e := NewEngine()
	e.Go("bench", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return e.Run
}

// BenchmarkEngineYield measures the self-wake fast path: a Yield with
// no competing work at the same timestamp must elide the yield to the
// engine loop entirely.
func BenchmarkEngineYield(b *testing.B) { allocgate.Bench(b, engineYield) }

func engineYield(n int) func() {
	e := NewEngine()
	e.Go("bench", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Yield()
		}
	})
	return e.Run
}

// BenchmarkEngineProcSwitch measures a real switch between processes:
// the procs sleep in staggered lockstep, so every wake resumes a proc
// other than the one that just parked and none takes park's inline
// fast path.
func BenchmarkEngineProcSwitch(b *testing.B) { allocgate.Bench(b, engineProcSwitch) }

func engineProcSwitch(n int) func() {
	e := NewEngine()
	const procs = 2
	for i := 0; i < procs; i++ {
		per := allocgate.Share(n, procs, i)
		e.Go("bench", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond)
			for j := 0; j < per; j++ {
				p.Sleep(procs * time.Microsecond)
			}
		})
	}
	return e.Run
}

// BenchmarkEngineEventChurn measures raw callback scheduling: each
// iteration pushes and drains one timer event through the queue.
func BenchmarkEngineEventChurn(b *testing.B) { allocgate.Bench(b, engineEventChurn) }

func engineEventChurn(n int) func() {
	e := NewEngine()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < n {
			e.After(time.Microsecond, tick)
		}
	}
	return func() {
		e.After(time.Microsecond, tick)
		e.Run()
	}
}

// BenchmarkEngineEventChurnDeep measures the event queue at the depth
// of an 8-pool run: 256 timers keep 256 events pending, and each fire
// first hands off through a callback due at the current instant (a core
// grant or lock handoff) before re-arming, so half of all pushes are due
// now. One op is one event.
func BenchmarkEngineEventChurnDeep(b *testing.B) { allocgate.Bench(b, engineEventChurnDeep) }

func engineEventChurnDeep(n int) func() {
	e := NewEngine()
	const timers = 256
	fired := 0
	for i := range timers {
		d := time.Duration(1+i%16) * time.Microsecond // shared timestamps
		var fire, rearm func()
		rearm = func() {
			fired++
			if fired < n {
				e.After(d, fire)
			}
		}
		fire = func() {
			fired++
			e.After(0, rearm)
		}
		e.After(d, fire)
	}
	return e.Run
}

// BenchmarkEngineEventSpread measures the event queue over the key spans
// of the model's timers: 256 timers keep 256 events pending, and each
// fire re-arms its timer with a delay drawn log-uniformly from 1 ns to
// 2 s, so pending keys sit in buckets across the radix heap's range and
// bucket moves cascade. One op is one event.
func BenchmarkEngineEventSpread(b *testing.B) { allocgate.Bench(b, engineEventSpread) }

func engineEventSpread(n int) func() {
	e := NewEngine()
	const timers = 256
	fired := 0
	x := uint64(0x9e3779b97f4a7c15)
	delay := func() time.Duration {
		x ^= x << 13 // xorshift64
		x ^= x >> 7
		x ^= x << 17
		shift := x % 32 // up to 2^31 ns, clamped to 2 s
		return min(2*time.Second, time.Duration(1+(x>>8)&(1<<shift-1)))
	}
	for range timers {
		var fire func()
		fire = func() {
			fired++
			if fired < n {
				e.After(delay(), fire)
			}
		}
		e.After(delay(), fire)
	}
	return e.Run
}

func BenchmarkMutexUncontended(b *testing.B) { allocgate.Bench(b, mutexUncontended) }

func mutexUncontended(n int) func() {
	e := NewEngine()
	m := NewMutex(e, "b")
	e.Go("bench", func(p *Proc) {
		for i := 0; i < n; i++ {
			m.Lock(p)
			m.Unlock(p)
		}
	})
	return e.Run
}

// BenchmarkMutexContendedHandoff measures the Unlock-to-waiter handoff
// with a standing queue of 64 workers, the hot path of the Fig 1b
// i_mutex convoys. The waiter ring must keep this allocation-free.
func BenchmarkMutexContendedHandoff(b *testing.B) { allocgate.Bench(b, mutexContendedHandoff) }

func mutexContendedHandoff(n int) func() {
	e := NewEngine()
	m := NewMutex(e, "b")
	const workers = 64
	for w := 0; w < workers; w++ {
		per := allocgate.Share(n, workers, w)
		e.Go("bench", func(p *Proc) {
			for i := 0; i < per; i++ {
				m.Lock(p)
				p.Sleep(time.Microsecond)
				m.Unlock(p)
			}
		})
	}
	return e.Run
}

// BenchmarkMutexCallbackHandoff is MutexContendedHandoff with callback
// waiters: each worker queues a callback (LockOrQueue) that holds the
// lock for 1µs from a timer, releases it and wakes the worker, so every
// handoff runs a grant callback instead of resuming a process.
func BenchmarkMutexCallbackHandoff(b *testing.B) { allocgate.Bench(b, mutexCallbackHandoff) }

func mutexCallbackHandoff(n int) func() {
	e := NewEngine()
	m := NewMutex(e, "b")
	const workers = 64
	for w := 0; w < workers; w++ {
		per := allocgate.Share(n, workers, w)
		var p *Proc
		release := func() {
			m.Unlock(p)
			e.ScheduleWakeAfter(p, 0)
		}
		granted := func() { e.After(time.Microsecond, release) }
		p = e.Go("bench", func(p *Proc) {
			for i := 0; i < per; i++ {
				if m.LockOrQueue(p, granted) {
					granted()
				}
				p.Park()
			}
		})
	}
	return e.Run
}

// BenchmarkWaitQueueSignalled measures a timed wait ended by Signal,
// the page-cache read-in and throttle waits of the kernel client: the
// waiter parks with an hour's timeout, and the signaller wakes it from
// another process. The dead timeouts fire as no-ops at the end.
func BenchmarkWaitQueueSignalled(b *testing.B) { allocgate.Bench(b, waitQueueSignalled) }

func waitQueueSignalled(n int) func() {
	e := NewEngine()
	q := NewWaitQueue(e, "b")
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.WaitTimeout(p, time.Hour)
		}
	})
	e.Go("signaller", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Microsecond)
			q.Signal()
		}
	})
	return e.Run
}

// BenchmarkWaitQueueTimedOut measures a timed wait that expires, the
// periodic flusher and compaction waits: the timeout and the wake both
// run inline in the waiter's park.
func BenchmarkWaitQueueTimedOut(b *testing.B) { allocgate.Bench(b, waitQueueTimedOut) }

func waitQueueTimedOut(n int) func() {
	e := NewEngine()
	q := NewWaitQueue(e, "b")
	e.Go("waiter", func(p *Proc) {
		for i := 0; i < n; i++ {
			q.WaitTimeout(p, time.Microsecond)
		}
	})
	return e.Run
}
