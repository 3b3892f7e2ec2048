package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsCallbacksInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.After(30*time.Millisecond, func() { got = append(got, 3) })
	e.After(10*time.Millisecond, func() { got = append(got, 1) })
	e.After(20*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("callback order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("Now = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOForSimultaneousEvents(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.After(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine()
	var woke time.Duration
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	e.Run()
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if e.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", e.LiveProcs())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Millisecond)
					trace = append(trace, name)
				}
			})
		}
		e.Run()
		return trace
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("trace length varies")
		} else {
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("nondeterministic trace: %v vs %v", got, first)
				}
			}
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.After(time.Second, func() { fired++ })
	e.After(3*time.Second, func() { fired++ })
	e.RunUntil(2 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now = %v, want 2s", e.Now())
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after drain, want 2", fired)
	}
}

func TestMutexProvidesMutualExclusion(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "test")
	inside := 0
	maxInside := 0
	for i := 0; i < 4; i++ {
		e.Go("worker", func(p *Proc) {
			for j := 0; j < 5; j++ {
				m.Lock(p)
				inside++
				if inside > maxInside {
					maxInside = inside
				}
				p.Sleep(time.Millisecond)
				inside--
				m.Unlock(p)
			}
		})
	}
	e.Run()
	if maxInside != 1 {
		t.Fatalf("max concurrent holders = %d, want 1", maxInside)
	}
	s := m.Stats()
	if s.Acquisitions != 20 {
		t.Fatalf("Acquisitions = %d, want 20", s.Acquisitions)
	}
	// Total hold is 20 critical sections of 1ms each.
	if s.TotalHold != 20*time.Millisecond {
		t.Fatalf("TotalHold = %v, want 20ms", s.TotalHold)
	}
	if s.Contended == 0 || s.TotalWait == 0 {
		t.Fatalf("expected contention, got %+v", s)
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "fifo")
	var order []int
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * time.Millisecond)
		m.Unlock(p)
	})
	for i := 0; i < 5; i++ {
		i := i
		e.Go("waiter", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond) // arrive in order
			m.Lock(p)
			order = append(order, i)
			m.Unlock(p)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("handoff not FIFO: %v", order)
		}
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "panic")
	panicked := false
	e.Go("bad", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		m.Unlock(p)
	})
	e.Run()
	if !panicked {
		t.Fatal("expected panic on unlock by non-owner")
	}
}

func TestWaitQueueSignalWakesOldest(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue(e, "q")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		e.Go("waiter", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			q.Wait(p)
			order = append(order, i)
		})
	}
	e.Go("signaler", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		for i := 0; i < 3; i++ {
			q.Signal()
			p.Sleep(time.Millisecond)
		}
	})
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("signal order = %v, want FIFO", order)
		}
	}
}

func TestWaitQueueTimeout(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue(e, "q")
	var timedOutAt, signalledAt time.Duration
	e.Go("t", func(p *Proc) {
		q.WaitTimeout(p, 50*time.Millisecond)
		timedOutAt = p.Now()
	})
	e.Go("s", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		q.WaitTimeout(p, time.Hour)
		signalledAt = p.Now()
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(100 * time.Millisecond)
		q.Signal()
	})
	e.Run()
	if timedOutAt != 50*time.Millisecond {
		t.Fatalf("first waiter resumed at %v, want its 50ms timeout", timedOutAt)
	}
	if signalledAt != 100*time.Millisecond {
		t.Fatalf("second waiter resumed at %v, want the 100ms signal", signalledAt)
	}
	if q.waiters.Len() != 0 {
		t.Fatalf("queue should be empty, len=%d", q.waiters.Len())
	}
}

func TestWaitQueueSignalAfterTimeoutSkipsStaleWaiter(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue(e, "q")
	woken := false
	e.Go("short", func(p *Proc) {
		q.WaitTimeout(p, 10*time.Millisecond)
	})
	e.Go("long", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Wait(p)
		woken = true
	})
	e.Go("signaler", func(p *Proc) {
		p.Sleep(20 * time.Millisecond)
		if !q.Signal() {
			t.Error("Signal found no live waiter")
		}
	})
	e.Run()
	if !woken {
		t.Fatal("long waiter was not woken by the single Signal")
	}
}

func TestWaitQueueBroadcast(t *testing.T) {
	e := NewEngine()
	q := NewWaitQueue(e, "q")
	woken := 0
	for i := 0; i < 4; i++ {
		e.Go("w", func(p *Proc) {
			q.Wait(p)
			woken++
		})
	}
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		q.Broadcast()
	})
	e.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

// TestResourceCapacityAndFIFO: six users arrive 1µs apart at a
// resource of capacity 2 and hold it for uneven times, so units free up
// out of arrival order; admission must still follow arrival order and
// never exceed the capacity. The run is repeated with every other user
// a callback waiter (AcquireOrQueue, its callback handing control back
// with ResumeHere) in the same FIFO: admission, times and the number of
// engine events must not change, only the grants' kind.
func TestResourceCapacityAndFIFO(t *testing.T) {
	var events [2]int
	for mixed := range 2 {
		e := NewEngine()
		e.SetTracer(func(ev TraceEvent) {
			if ev.Kind != TraceFinish {
				events[mixed]++
			}
		})
		r := NewResource(e, "daemon", 2)
		holds := []time.Duration{3, 1, 2, 1, 1, 1}
		active, maxActive := 0, 0
		var order []int
		for i, hold := range holds {
			e.Go("u", func(p *Proc) {
				p.Sleep(time.Duration(i) * time.Microsecond)
				if mixed == 1 && i%2 == 1 {
					if !r.AcquireOrQueue(p, p.ResumeHere) {
						p.Park()
					}
				} else {
					r.Acquire(p)
				}
				order = append(order, i)
				active++
				maxActive = max(maxActive, active)
				p.Sleep(hold * time.Millisecond)
				active--
				r.Release()
			})
		}
		e.Run()
		for i, u := range order {
			if u != i {
				t.Fatalf("mixed=%d: admission order = %v, want arrival order", mixed, order)
			}
		}
		if len(order) != len(holds) {
			t.Fatalf("mixed=%d: admitted %d users, want %d", mixed, len(order), len(holds))
		}
		if maxActive != 2 {
			t.Fatalf("mixed=%d: max active = %d, want capacity 2", mixed, maxActive)
		}
		// 0 holds [0, 3ms), 1 [1µs, 1ms+1µs), 2 [1ms+1µs, 3ms+1µs),
		// 3 [3ms, 4ms), 4 [3ms+1µs, 4ms+1µs), 5 [4ms, 5ms).
		if e.Now() != 5*time.Millisecond {
			t.Fatalf("mixed=%d: last release at %v, want 5ms", mixed, e.Now())
		}
		if r.inUse != 0 || r.waiters.Len() != 0 {
			t.Fatalf("mixed=%d: at end inUse=%d waiters=%d, want both 0", mixed, r.inUse, r.waiters.Len())
		}
	}
	if events[0] != events[1] {
		t.Fatalf("%d engine events with callback waiters, %d without", events[1], events[0])
	}
}

func TestGoFromWithinProc(t *testing.T) {
	e := NewEngine()
	childRan := false
	e.Go("parent", func(p *Proc) {
		e.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
		})
		p.Sleep(5 * time.Millisecond)
	})
	e.Run()
	if !childRan {
		t.Fatal("child spawned from proc did not run")
	}
}

func TestPanicInsideProcIsRecoverableFromRun(t *testing.T) {
	// A panic inside a simulated process surfaces from Run on the
	// caller's goroutine, after the process has been accounted finished.
	e := NewEngine()
	var finished []string
	e.SetTracer(func(ev TraceEvent) {
		if ev.Kind == TraceFinish {
			finished = append(finished, ev.Proc)
		}
	})
	e.Go("dying", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("boom")
	})
	e.Go("other", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the proc's panic", got)
	}
	if len(finished) != 1 || finished[0] != "dying" {
		t.Fatalf("finish events = %v, want [dying]", finished)
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (other still parked)", e.LiveProcs())
	}
}

func TestGoexitInsideProcEndsRunCaller(t *testing.T) {
	// A test failure inside a simulated process calls runtime.Goexit.
	// It must end the goroutine that called Run, not hang the engine.
	e := NewEngine()
	e.Go("dying", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	e.Go("other", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
	})
	ended := make(chan bool)
	go func() {
		returned := false
		defer func() { ended <- returned }()
		e.Run()
		returned = true
	}()
	select {
	case returned := <-ended:
		if returned {
			t.Fatal("Run returned normally after a Goexit in a proc")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("engine hung after a Goexit in a proc")
	}
	if e.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 (other still parked)", e.LiveProcs())
	}
}

func TestDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	var target *Proc
	target = e.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Hour) // schedules one wake already
	})
	panicked := false
	e.Go("waker", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Sleep(time.Millisecond)
		e.ScheduleWakeAfter(target, 0) // second pending wake: must be rejected
	})
	e.RunUntil(time.Second)
	if !panicked {
		t.Fatal("double wake was not rejected")
	}
}

func TestEventOrderProperty(t *testing.T) {
	// Random callback schedules always fire in nondecreasing time order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var last time.Duration = -1
		ok := true
		var schedule func(depth int)
		schedule = func(depth int) {
			n := rng.Intn(5) + 1
			for i := 0; i < n; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				e.After(d, func() {
					if e.Now() < last {
						ok = false
					}
					last = e.Now()
					if depth < 3 && rng.Intn(3) == 0 {
						schedule(depth + 1) // nested scheduling
					}
				})
			}
		}
		schedule(0)
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerObservesEventsWithoutChangingTime(t *testing.T) {
	run := func(traced bool) (time.Duration, []TraceEvent) {
		e := NewEngine()
		var events []TraceEvent
		if traced {
			e.SetTracer(func(ev TraceEvent) { events = append(events, ev) })
		}
		e.After(time.Millisecond, func() {})
		e.Go("worker", func(p *Proc) {
			p.Sleep(2 * time.Millisecond)
		})
		e.Run()
		return e.Now(), events
	}
	plainEnd, _ := run(false)
	tracedEnd, events := run(true)
	if plainEnd != tracedEnd {
		t.Fatalf("tracing changed virtual time: %v vs %v", plainEnd, tracedEnd)
	}
	var callbacks, resumes, finishes int
	for _, ev := range events {
		switch ev.Kind {
		case TraceCallback:
			callbacks++
		case TraceResume:
			resumes++
			if ev.Proc != "worker" {
				t.Fatalf("unexpected proc name %q", ev.Proc)
			}
		case TraceFinish:
			finishes++
		}
	}
	if callbacks != 1 || resumes != 2 || finishes != 1 {
		t.Fatalf("trace counts: callbacks=%d resumes=%d finishes=%d", callbacks, resumes, finishes)
	}
}

func TestLockStatsAdd(t *testing.T) {
	s := LockStats{Acquisitions: 3, TotalWait: 5, TotalHold: 7, MaxWait: 4, Contended: 1}
	s.Add(LockStats{Acquisitions: 2, TotalWait: 6, TotalHold: 1, MaxWait: 6, Contended: 2})
	s.Add(LockStats{Acquisitions: 1, TotalWait: 1, TotalHold: 1, MaxWait: 1})
	if want := (LockStats{Acquisitions: 6, TotalWait: 12, TotalHold: 9, MaxWait: 6, Contended: 3}); s != want {
		t.Fatalf("Add = %+v, want %+v", s, want)
	}
}

func TestLockStatsAverages(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "avg")
	e.Go("a", func(p *Proc) {
		m.Lock(p)
		p.Sleep(4 * time.Millisecond)
		m.Unlock(p)
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
		p.Sleep(2 * time.Millisecond)
		m.Unlock(p)
	})
	e.Run()
	s := m.Stats()
	// Holds: 4ms + 2ms over 2 acquisitions = 3ms average.
	if s.AvgHold() != 3*time.Millisecond {
		t.Fatalf("AvgHold = %v", s.AvgHold())
	}
	// Waits: b waited 3ms; averaged over BOTH acquisitions = 1.5ms.
	if s.AvgWait() != 1500*time.Microsecond {
		t.Fatalf("AvgWait = %v", s.AvgWait())
	}
	if s.MaxWait != 3*time.Millisecond {
		t.Fatalf("MaxWait = %v", s.MaxWait)
	}
	m.ResetStats()
	if m.Stats().AvgHold() != 0 || m.Stats().AvgWait() != 0 {
		t.Fatal("reset did not clear averages")
	}
}

func TestMutexLockedAndWaiters(t *testing.T) {
	e := NewEngine()
	m := NewMutex(e, "state")
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * time.Millisecond)
		m.Unlock(p)
	})
	e.Go("observer", func(p *Proc) {
		p.Sleep(time.Millisecond)
		if !m.Locked() {
			t.Error("mutex should be held")
		}
	})
	e.Go("waiter", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		m.Lock(p)
		m.Unlock(p)
	})
	e.Go("counter", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		if m.Waiters() != 1 {
			t.Errorf("Waiters = %d, want 1", m.Waiters())
		}
	})
	e.Run()
	if m.Locked() {
		t.Fatal("mutex should be free at the end")
	}
}

func TestMutexManyWaitersFIFOOrder(t *testing.T) {
	// A multi-hundred waiter queue (the Fig 1b i_mutex regime) must
	// drain in strict arrival order through the ring's lazy compaction.
	e := NewEngine()
	m := NewMutex(e, "ring")
	const n = 300
	var order []int
	e.Go("holder", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Duration(n+1) * time.Microsecond)
		if got := m.Waiters(); got != n {
			t.Errorf("Waiters() = %d, want %d", got, n)
		}
		m.Unlock(p)
	})
	for i := 0; i < n; i++ {
		i := i
		e.Go("waiter", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Microsecond) // arrive in index order
			m.Lock(p)
			order = append(order, i)
			m.Unlock(p)
		})
	}
	e.Run()
	if len(order) != n {
		t.Fatalf("%d waiters ran, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("handoff %d went to waiter %d; order not FIFO", i, got)
		}
	}
	if m.Waiters() != 0 || m.Locked() {
		t.Fatalf("mutex not drained: locked=%v waiters=%d", m.Locked(), m.Waiters())
	}
}

// TestQueueMatchesSliceRemoval drives a Queue through random pushes and
// removals, mostly at the head so the dead prefix crosses the lazy
// compaction threshold, and requires the same contents as a plain slice
// after every step, with no reference kept in a dead slot.
func TestQueueMatchesSliceRemoval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[*int]
	var ref []*int
	compactions := 0
	for step := 0; step < 20000; step++ {
		if len(ref) < 300 && rng.Intn(2) == 0 {
			v := new(int)
			*v = step
			q.Push(v)
			ref = append(ref, v)
			continue
		}
		if len(ref) == 0 {
			continue
		}
		i := 0
		if rng.Intn(4) == 0 {
			i = rng.Intn(len(ref))
		}
		head := q.head
		if got := q.Remove(i); got != ref[i] {
			t.Fatalf("step %d: Remove(%d) = %d, want %d", step, i, *got, *ref[i])
		}
		ref = append(ref[:i], ref[i+1:]...)
		if q.head < head && q.Len() > 0 {
			compactions++
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: queue holds %d, slice %d", step, q.Len(), len(ref))
		}
		for j := range ref {
			if q.At(j) != ref[j] {
				t.Fatalf("step %d: queue order differs from slice at %d", step, j)
			}
		}
		dead := append(q.buf[:q.head:q.head], q.buf[len(q.buf):cap(q.buf)]...)
		for j, v := range dead {
			if v != nil {
				t.Fatalf("step %d: dead slot %d still holds a reference", step, j)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("the dead prefix was never compacted")
	}
}

// histWaitQueue is WaitQueue as it was before its waiters moved into
// Proc: a slice of heap-allocated waiter records whose woken flags
// guard against a double wake, and one timeout closure per timed wait.
// It is the oracle of TestWaitQueueMatchesHistoricalQueue.
type histWaitQueue struct {
	eng     *Engine
	name    string
	waiters []*qWaiter
}

type qWaiter struct {
	p        *Proc
	woken    bool // set when signalled or timed out; guards double wake
	timedOut bool
}

func (q *histWaitQueue) Wait(p *Proc) {
	w := &qWaiter{p: p}
	q.waiters = append(q.waiters, w)
	since := q.eng.now
	p.park()
	p.ReportWait("waitq", q.name, "", 0, q.eng.now-since)
}

func (q *histWaitQueue) WaitTimeout(p *Proc, d time.Duration) (timedOut bool) {
	w := &qWaiter{p: p}
	q.waiters = append(q.waiters, w)
	q.eng.After(d, func() {
		if w.woken {
			return
		}
		w.woken = true
		q.remove(w)
		w.timedOut = true
		q.eng.scheduleWake(p, q.eng.now)
	})
	since := q.eng.now
	p.park()
	p.ReportWait("waitq", q.name, "", 0, q.eng.now-since)
	return w.timedOut
}

func (q *histWaitQueue) Signal() bool {
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.woken {
			continue
		}
		w.woken = true
		q.eng.scheduleWake(w.p, q.eng.now)
		return true
	}
	return false
}

func (q *histWaitQueue) Broadcast() {
	for _, w := range q.waiters {
		if w.woken {
			continue
		}
		w.woken = true
		q.eng.scheduleWake(w.p, q.eng.now)
	}
	q.waiters = q.waiters[:0]
}

func (q *histWaitQueue) remove(target *qWaiter) {
	for i, w := range q.waiters {
		if w == target {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// waitScenario is a script of wait-queue operations: one op list per
// process, and signals fired by engine callbacks.
type waitScenario struct {
	procs [][]waitOp
	calls []waitOp // opSignal or opBroadcast, d after the start
}

type waitOp struct {
	kind int
	d    time.Duration
}

const (
	opWait = iota
	opWaitTimeout
	opSleep
	opSignal
	opBroadcast
	opSignalLater // arm an engine callback that signals d from now
)

// waitQueueUnderTest is the queue API a scenario drives.
type waitQueueUnderTest struct {
	wait        func(p *Proc)
	waitTimeout func(p *Proc, d time.Duration)
	signal      func() bool
	broadcast   func()
}

// runWaitScenario plays sc on a fresh engine and returns one line per
// observable: every traced event, every reported wait, every resume
// from a wait and every Signal result, in the order they happened.
func runWaitScenario(sc waitScenario, newQueue func(*Engine) waitQueueUnderTest) []string {
	e := NewEngine()
	q := newQueue(e)
	var log []string
	e.SetTracer(func(ev TraceEvent) {
		log = append(log, fmt.Sprintf("trace %v %v %s#%d", ev.At, ev.Kind, ev.Proc, ev.ProcID))
	})
	names := map[int]string{}
	e.SetWaitObserver(func(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
		log = append(log, fmt.Sprintf("report %s %s %s %v %v", names[proc], kind, resource, start, dur))
	})
	signal := func(by string) {
		log = append(log, fmt.Sprintf("signal by %s at %v: %v", by, e.Now(), q.signal()))
	}
	for _, c := range sc.calls {
		e.After(c.d, func() {
			if c.kind == opBroadcast {
				log = append(log, fmt.Sprintf("broadcast by callback at %v", e.Now()))
				q.broadcast()
				return
			}
			signal("callback")
		})
	}
	for i, ops := range sc.procs {
		name := fmt.Sprintf("p%d", i)
		names[e.Go(name, func(p *Proc) {
			for j, op := range ops {
				switch op.kind {
				case opWait:
					q.wait(p)
				case opWaitTimeout:
					q.waitTimeout(p, op.d)
				case opSleep:
					p.Sleep(op.d)
					continue
				case opSignal:
					signal(p.Name())
					continue
				case opBroadcast:
					log = append(log, fmt.Sprintf("broadcast by %s at %v", p.Name(), e.Now()))
					q.broadcast()
					continue
				case opSignalLater:
					e.After(op.d, func() { signal("later") })
					continue
				}
				log = append(log, fmt.Sprintf("resume %s op %d at %v", p.Name(), j, p.Now()))
			}
		}).ID()] = name
	}
	e.Run()
	return append(log, fmt.Sprintf("end at %v with %d live", e.Now(), e.LiveProcs()))
}

// randomWaitScenario draws 1-6 processes of 1-8 ops and up to 4
// signalling callbacks. Durations come from a few equal values, so
// timeouts, signals and re-waits often fall due at the same instant.
func randomWaitScenario(rng *rand.Rand) waitScenario {
	durs := []time.Duration{0, time.Microsecond, time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	dur := func() time.Duration { return durs[rng.Intn(len(durs))] }
	var sc waitScenario
	for range 1 + rng.Intn(6) {
		var ops []waitOp
		for range 1 + rng.Intn(8) {
			op := waitOp{d: dur()}
			switch r := rng.Intn(20); {
			case r < 2:
				op.kind = opWait
			case r < 10:
				op.kind = opWaitTimeout
			case r < 13:
				op.kind = opSleep
			case r < 16:
				op.kind = opSignal
			case r < 17:
				op.kind = opBroadcast
			default:
				op.kind = opSignalLater
			}
			ops = append(ops, op)
		}
		sc.procs = append(sc.procs, ops)
	}
	for range rng.Intn(5) {
		kind := opSignal
		if rng.Intn(4) == 0 {
			kind = opBroadcast
		}
		sc.calls = append(sc.calls, waitOp{kind: kind, d: dur()})
	}
	return sc
}

// TestWaitQueueMatchesHistoricalQueue holds WaitQueue to the slice
// queue it replaced, event for event: the same trace, the same wait
// reports, the same resume times and the same Signal results. The
// first scenario is the case a deadline check gets wrong: p0's wait is
// signalled in the instant it began and p0 waits again with the same
// timeout, so two of its timeouts fall due at 1ms, the stale one first;
// a signal armed between them must still find p0 waiting.
func TestWaitQueueMatchesHistoricalQueue(t *testing.T) {
	current := func(e *Engine) waitQueueUnderTest {
		q := NewWaitQueue(e, "q")
		return waitQueueUnderTest{q.Wait, q.WaitTimeout, q.Signal, q.Broadcast}
	}
	historical := func(e *Engine) waitQueueUnderTest {
		q := &histWaitQueue{eng: e, name: "q"}
		return waitQueueUnderTest{q.Wait, func(p *Proc, d time.Duration) { q.WaitTimeout(p, d) }, q.Signal, q.Broadcast}
	}
	scenarios := []waitScenario{{procs: [][]waitOp{
		{{kind: opWaitTimeout, d: time.Millisecond}, {kind: opWaitTimeout, d: time.Millisecond}},
		{{kind: opSignalLater, d: time.Millisecond}, {kind: opSignal}},
	}}}
	rng := rand.New(rand.NewSource(1))
	for range 400 {
		scenarios = append(scenarios, randomWaitScenario(rng))
	}
	for i, sc := range scenarios {
		want := runWaitScenario(sc, historical)
		got := runWaitScenario(sc, current)
		for j := 0; j < max(len(got), len(want)); j++ {
			if j >= len(got) || j >= len(want) || got[j] != want[j] {
				t.Fatalf("scenario %d %+v diverges at line %d:\n got: %s\nwant: %s",
					i, sc, j, strings.Join(got[max(0, j-3):min(len(got), j+1)], "\n      "),
					strings.Join(want[max(0, j-3):min(len(want), j+1)], "\n      "))
			}
		}
	}
}

// TestWaitQueueMixesCallbackWaiters holds a queue whose odd-numbered
// processes wait as callback waiters (WaitThen, WaitTimeoutThen, each
// continuation handing control back with ResumeHere) to the same queue
// with process waiters only, event for event: the same engine events at
// the same times in the same order, the same wait reports, the same
// resume times and the same Signal results, under Signal, Broadcast and
// timeouts. Only an event's kind may differ: a callback waiter's wake is
// a callback where a parked waiter's is a resume. The first scenario
// signals p1's timed wait, whose timeout then fires dead while p1
// sleeps.
func TestWaitQueueMixesCallbackWaiters(t *testing.T) {
	parked := func(e *Engine) waitQueueUnderTest {
		q := NewWaitQueue(e, "q")
		return waitQueueUnderTest{q.Wait, q.WaitTimeout, q.Signal, q.Broadcast}
	}
	mixed := func(e *Engine) waitQueueUnderTest {
		q := NewWaitQueue(e, "q")
		odd := func(p *Proc) bool { return p.ID()%2 == 0 } // p1, p3, ... (ids start at 1)
		return waitQueueUnderTest{
			wait: func(p *Proc) {
				if !odd(p) {
					q.Wait(p)
					return
				}
				q.WaitThen(p, p.ResumeHere)
				p.Park()
			},
			waitTimeout: func(p *Proc, d time.Duration) {
				if !odd(p) {
					q.WaitTimeout(p, d)
					return
				}
				q.WaitTimeoutThen(p, d, p.ResumeHere)
				p.Park()
			},
			signal:    q.Signal,
			broadcast: q.Broadcast,
		}
	}
	scenarios := []waitScenario{{procs: [][]waitOp{
		{{kind: opSignalLater, d: 500 * time.Microsecond}},
		{{kind: opWaitTimeout, d: 2 * time.Millisecond}, {kind: opSleep, d: 3 * time.Millisecond}},
	}}}
	rng := rand.New(rand.NewSource(2))
	for range 400 {
		scenarios = append(scenarios, randomWaitScenario(rng))
	}
	became := 0
	for i, sc := range scenarios {
		want := runWaitScenario(sc, parked)
		got := runWaitScenario(sc, mixed)
		for j := 0; j < max(len(got), len(want)); j++ {
			if j < len(got) && j < len(want) && got[j] != want[j] {
				// A callback waiter's wake: the same event, run as a
				// callback.
				at, _, ok := strings.Cut(strings.TrimPrefix(want[j], "trace "), " resume ")
				if ok && strings.HasPrefix(want[j], "trace ") && got[j] == "trace "+at+" callback #0" {
					became++
					continue
				}
			}
			if j >= len(got) || j >= len(want) || got[j] != want[j] {
				t.Fatalf("scenario %d %+v diverges at line %d:\n got: %s\nwant: %s",
					i, sc, j, strings.Join(got[max(0, j-3):min(len(got), j+1)], "\n      "),
					strings.Join(want[max(0, j-3):min(len(want), j+1)], "\n      "))
			}
		}
	}
	if became == 0 {
		t.Fatal("no wake ran as a callback")
	}
}
