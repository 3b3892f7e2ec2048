package sim

import (
	"slices"
	"testing"
	"time"
)

// TestMutexCallbackWaiters mixes process waiters (Lock) and callback
// waiters (LockOrQueue) on one mutex. Grants must follow queue order
// across both kinds; each wait must be accounted and reported at its
// grant event, so a ResetStats that runs between an Unlock and the
// grant it schedules leaves the wait in the new window; and the holder
// blamed is the one at queue time, for callback waiters queued from an
// engine callback too.
func TestMutexCallbackWaiters(t *testing.T) {
	e := NewEngine()
	var waits []waitRec
	start := recordWaits(e, &waits)
	m := NewMutex(e, "m")
	ms := time.Millisecond
	var order []string
	var atGrantC LockStats
	grant := func(p *Proc) { order = append(order, p.Name()) }
	// unlockAfterReset releases m with a ResetStats queued just ahead of
	// the handoff it makes: the reset runs between Unlock and the grant.
	unlockAfterReset := func(p *Proc) {
		e.After(0, m.ResetStats)
		m.Unlock(p)
	}

	start("A", func(p *Proc) {
		m.Lock(p)
		p.Sleep(10 * ms)
		unlockAfterReset(p)
	})
	start("B", func(p *Proc) {
		p.Sleep(ms)
		m.Lock(p)
		grant(p)
		p.Sleep(2 * ms)
		unlockAfterReset(p)
	})
	start("C", func(p *Proc) {
		p.Sleep(2 * ms)
		if m.LockOrQueue(p, func() {
			grant(p)
			atGrantC = m.Stats()
			e.After(ms, func() {
				unlockAfterReset(p)
				e.ScheduleWakeAfter(p, 0)
			})
		}) {
			t.Error("C acquired a held mutex")
		}
		p.Park()
	})
	start("D", func(p *Proc) {
		p.Sleep(3 * ms)
		m.Lock(p)
		grant(p)
		p.Sleep(ms)
		m.Unlock(p)
	})
	start("E", func(p *Proc) {
		// Queued by a callback while B holds the lock.
		e.After(11*ms, func() {
			m.LockOrQueue(p, func() {
				grant(p)
				m.Unlock(p)
				e.ScheduleWakeAfter(p, 0)
			})
		})
		p.Park()
	})
	e.Run()

	if want := []string{"B", "C", "D", "E"}; !slices.Equal(order, want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	// The reset at 12ms, between B's Unlock and C's grant, dropped B's
	// hold but not C's wait.
	if want := (LockStats{TotalWait: 10 * ms, MaxWait: 10 * ms}); atGrantC != want {
		t.Errorf("stats at C's grant %+v, want %+v", atGrantC, want)
	}
	// The last reset ran at 13ms, ahead of D's grant.
	if got, want := m.Stats(), (LockStats{TotalWait: 13 * ms, MaxWait: 10 * ms, TotalHold: ms}); got != want {
		t.Errorf("final stats %+v, want %+v", got, want)
	}
	want := []waitRec{
		{"B", "lock", "m", "A", ms, 9 * ms},
		{"C", "lock", "m", "A", 2 * ms, 10 * ms},
		{"D", "lock", "m", "A", 3 * ms, 10 * ms},
		{"E", "lock", "m", "B", 11 * ms, 3 * ms},
	}
	if !slices.Equal(waits, want) {
		t.Fatalf("wait reports\n got %+v\nwant %+v", waits, want)
	}
	if e.LiveProcs() != 0 || m.Locked() {
		t.Fatalf("%d procs left, mutex locked %v", e.LiveProcs(), m.Locked())
	}
}
