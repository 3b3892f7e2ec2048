package sim

import "time"

// WaitQueue is a condition-variable-like primitive. Because only one
// process runs at a time in virtual time, the usual lost-wakeup races
// do not exist: callers re-check their condition in a loop around Wait.
type WaitQueue struct {
	eng     *Engine
	name    string
	waiters Queue[*Proc] // each with its request in Proc.wait
}

// waitRequest is a process's pending wait on a queue. A process waits
// on at most one queue at a time, so the request lives in the process
// and the queue holds only the process.
type waitRequest struct {
	q       *WaitQueue // nil once signalled or timed out
	timer   uint64     // seq of the timeout event of a timed wait, else 0
	timeout func()     // reusable timeout event (Proc.waitTimedOut)
}

// NewWaitQueue creates a named wait queue on e.
func NewWaitQueue(e *Engine, name string) *WaitQueue {
	return &WaitQueue{eng: e, name: name}
}

// Wait parks p until Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(p *Proc) { q.wait(p, false, 0) }

// WaitTimeout parks p until signalled or until d elapses.
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) { q.wait(p, true, d) }

// wait queues p, arms its timeout if timed, parks it until it is
// signalled or times out, and reports the wait.
func (q *WaitQueue) wait(p *Proc, timed bool, d time.Duration) {
	p.wait.q, p.wait.timer = q, 0
	q.waiters.Push(p)
	if timed {
		if p.wait.timeout == nil {
			p.wait.timeout = p.waitTimedOut
		}
		q.eng.After(d, p.wait.timeout)
		p.wait.timer = q.eng.seq
	}
	since := q.eng.now
	p.park()
	p.ReportWait("waitq", q.name, "", 0, q.eng.now-since)
}

// waitTimedOut is the timeout event of p's timed waits. It wakes p only
// if p still waits and this event is the one its current wait armed: a
// timeout left behind by an earlier, signalled wait is a no-op.
func (p *Proc) waitTimedOut() {
	q := p.wait.q
	if q == nil || p.wait.timer != p.eng.cur {
		return
	}
	for i := 0; ; i++ {
		if q.waiters.At(i) == p {
			q.wake(q.waiters.Remove(i))
			return
		}
	}
}

// Signal wakes the oldest waiter, if any. It reports whether a waiter
// was woken.
func (q *WaitQueue) Signal() bool {
	if q.waiters.Len() == 0 {
		return false
	}
	q.wake(q.waiters.Pop())
	return true
}

// Broadcast wakes every current waiter, oldest first.
func (q *WaitQueue) Broadcast() {
	for q.waiters.Len() > 0 {
		q.wake(q.waiters.Pop())
	}
}

// wake ends the wait of p, just taken off the queue: a signal or its
// timeout, whichever comes first.
func (q *WaitQueue) wake(p *Proc) {
	p.wait.q = nil
	q.eng.scheduleWake(p, q.eng.now)
}
