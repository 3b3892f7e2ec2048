package sim

import (
	"testing"
	"time"
)

type waitRec struct {
	proc, kind, resource, holder string
	start, dur                   time.Duration
}

// TestMutexHolderAttributionUnderHandoff pins the lock-wait attribution
// contract: the reported holder is whoever held the lock when the
// waiter *enqueued*, not whoever handed it over. Under FIFO handoff a
// long queue means the final owner is usually an innocent waiter ahead
// of us; blaming it would charge victims for each other's waits.
func TestMutexHolderAttributionUnderHandoff(t *testing.T) {
	eng := NewEngine()
	var waits []waitRec
	eng.SetWaitObserver(func(p *Proc, kind, resource, holder string, holderID int, start, dur time.Duration) {
		waits = append(waits, waitRec{p.Name(), kind, resource, holder, start, dur})
	})
	m := NewMutex(eng, "i_mutex")

	eng.Go("aggressor", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * time.Millisecond) // long critical section
		m.Unlock(p)
	})
	eng.Go("victim-b", func(p *Proc) {
		p.Sleep(time.Millisecond) // queue while aggressor holds the lock
		m.Lock(p)
		p.Sleep(2 * time.Millisecond)
		m.Unlock(p)
	})
	eng.Go("victim-c", func(p *Proc) {
		p.Sleep(2 * time.Millisecond) // queue behind victim-b
		m.Lock(p)
		m.Unlock(p)
	})
	eng.Run()

	if len(waits) != 2 {
		t.Fatalf("want 2 lock waits, got %d: %+v", len(waits), waits)
	}
	b, c := waits[0], waits[1]
	if b.proc != "victim-b" || b.holder != "aggressor" {
		t.Errorf("victim-b wait misattributed: %+v", b)
	}
	if b.dur != 9*time.Millisecond || b.start != time.Millisecond {
		t.Errorf("victim-b wait interval wrong: %+v", b)
	}
	// victim-c enqueued while the aggressor still held the lock but
	// received it from victim-b. Blame must stick to the aggressor.
	if c.proc != "victim-c" || c.holder != "aggressor" {
		t.Errorf("victim-c wait misattributed (handoff blamed instead of holder): %+v", c)
	}
	if c.dur != 10*time.Millisecond || c.start != 2*time.Millisecond {
		t.Errorf("victim-c wait interval wrong: %+v", c)
	}
	for _, w := range waits {
		if w.kind != "lock" || w.resource != "i_mutex" {
			t.Errorf("wrong kind/resource: %+v", w)
		}
	}
}

// TestWaitObserverUncontendedSilent verifies that uncontended locks and
// zero-length waits report nothing: only real waiting is blamed.
func TestWaitObserverUncontendedSilent(t *testing.T) {
	eng := NewEngine()
	var waits []waitRec
	eng.SetWaitObserver(func(p *Proc, kind, resource, holder string, holderID int, start, dur time.Duration) {
		waits = append(waits, waitRec{p.Name(), kind, resource, holder, start, dur})
	})
	m := NewMutex(eng, "free")
	eng.Go("solo", func(p *Proc) {
		m.Lock(p)
		m.Unlock(p)
		p.ReportWait("lock", "free", "", 0, 0) // explicit zero must be dropped
	})
	eng.Run()
	if len(waits) != 0 {
		t.Fatalf("uncontended run reported waits: %+v", waits)
	}
}

// TestWaitQueueReportsWaits verifies WaitQueue waits are observed with
// the queue's name, for both signalled and timed-out waits.
func TestWaitQueueReportsWaits(t *testing.T) {
	eng := NewEngine()
	var waits []waitRec
	eng.SetWaitObserver(func(p *Proc, kind, resource, holder string, holderID int, start, dur time.Duration) {
		waits = append(waits, waitRec{p.Name(), kind, resource, holder, start, dur})
	})
	q := NewWaitQueue(eng, "throttle")
	eng.Go("sleeper", func(p *Proc) {
		q.Wait(p)
		q.WaitTimeout(p, 3*time.Millisecond)
		if p.Now() != 8*time.Millisecond {
			t.Errorf("timed wait ended at %v, want its timeout at 8ms", p.Now())
		}
	})
	eng.Go("waker", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		q.Signal()
	})
	eng.Run()
	if q.waiters.Len() != 0 {
		t.Fatalf("queue should be empty, len=%d", q.waiters.Len())
	}
	if len(waits) != 2 {
		t.Fatalf("want 2 waitq waits, got %d: %+v", len(waits), waits)
	}
	if waits[0].kind != "waitq" || waits[0].resource != "throttle" || waits[0].dur != 5*time.Millisecond {
		t.Errorf("signalled wait wrong: %+v", waits[0])
	}
	if waits[1].dur != 3*time.Millisecond {
		t.Errorf("timed-out wait wrong: %+v", waits[1])
	}
}
