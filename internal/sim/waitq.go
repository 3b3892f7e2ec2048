package sim

import "time"

// WaitQueue is a condition-variable-like primitive. Because only one
// process runs at a time in virtual time, the usual lost-wakeup races
// do not exist: callers re-check their condition in a loop around Wait.
//
// A waiter is either a parked process (Wait, WaitTimeout) or a callback
// run on behalf of a parked process (WaitThen, WaitTimeoutThen); both
// kinds share one FIFO.
type WaitQueue struct {
	eng     *Engine
	name    string
	waiters Queue[*Proc] // each with its request in Proc.wait
}

// waitRequest is a process's pending wait on a queue. A process waits
// on at most one queue at a time, so the request lives in the process
// and the queue holds only the process.
type waitRequest struct {
	q       *WaitQueue    // nil once signalled or timed out
	on      *WaitQueue    // the queue of the current or last wait, for its report
	since   time.Duration // when the wait began
	timer   uint64        // seq of the timeout event of a timed wait, else 0
	timeout func()        // reusable timeout event (Proc.waitTimedOut)
	then    func()        // a callback waiter's continuation; nil for a process that parks
	fire    func()        // reusable wake event of a callback waiter (Proc.waitEnded)
}

// NewWaitQueue creates a named wait queue on e.
func NewWaitQueue(e *Engine, name string) *WaitQueue {
	return &WaitQueue{eng: e, name: name}
}

// Wait parks p until Signal or Broadcast wakes it.
func (q *WaitQueue) Wait(p *Proc) { q.wait(p, false, 0) }

// WaitTimeout parks p until signalled or until d elapses.
func (q *WaitQueue) WaitTimeout(p *Proc, d time.Duration) { q.wait(p, true, d) }

// WaitThen is the continuation form of Wait: it never parks p, so an
// engine callback acting for a parked p may call it. then runs as an
// engine callback at the event where Wait would have resumed p, after
// the same wait report.
func (q *WaitQueue) WaitThen(p *Proc, then func()) { q.queue(p, false, 0, then) }

// WaitTimeoutThen is the continuation form of WaitTimeout (see
// WaitThen). Its timeout is armed as WaitTimeout arms it, and left dead
// when a signal comes first.
func (q *WaitQueue) WaitTimeoutThen(p *Proc, d time.Duration, then func()) {
	q.queue(p, true, d, then)
}

// wait queues p, parks it until it is signalled or times out, and
// reports the wait.
func (q *WaitQueue) wait(p *Proc, timed bool, d time.Duration) {
	q.queue(p, timed, d, nil)
	p.park()
	p.waited()
}

// queue queues p with its continuation then (nil: p parks) and arms its
// timeout if timed.
func (q *WaitQueue) queue(p *Proc, timed bool, d time.Duration, then func()) {
	p.wait.q, p.wait.on, p.wait.since, p.wait.timer, p.wait.then = q, q, q.eng.now, 0, then
	q.waiters.Push(p)
	if timed {
		if p.wait.timeout == nil {
			p.wait.timeout = p.waitTimedOut
		}
		q.eng.After(d, p.wait.timeout)
		p.wait.timer = q.eng.seq
	}
}

// waited reports p's wait, which ends now.
func (p *Proc) waited() {
	p.ReportWait("waitq", p.wait.on.name, "", 0, p.eng.now-p.wait.since)
}

// waitEnded is the wake event of p's callback waiter.
func (p *Proc) waitEnded() {
	then := p.wait.then
	p.wait.then = nil
	p.waited()
	then()
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
// timeout, whichever comes first. A parked waiter's wake resumes p; a
// callback waiter's runs its continuation, at the same event.
func (q *WaitQueue) wake(p *Proc) {
	p.wait.q = nil
	if p.wait.then == nil {
		q.eng.scheduleWake(p, q.eng.now)
		return
	}
	if p.wait.fire == nil {
		p.wait.fire = p.waitEnded
	}
	q.eng.After(0, p.wait.fire)
}
