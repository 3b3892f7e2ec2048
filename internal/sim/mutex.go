package sim

import "time"

// LockStats aggregates contention statistics for a simulated Mutex.
type LockStats struct {
	Acquisitions uint64
	TotalWait    time.Duration
	TotalHold    time.Duration
	MaxWait      time.Duration
	Contended    uint64 // acquisitions that had to wait
}

// AvgWait returns the mean wait time per lock request.
func (s LockStats) AvgWait() time.Duration {
	if s.Acquisitions == 0 {
		return 0
	}
	return s.TotalWait / time.Duration(s.Acquisitions)
}

// AvgHold returns the mean hold time per lock request.
func (s LockStats) AvgHold() time.Duration {
	if s.Acquisitions == 0 {
		return 0
	}
	return s.TotalHold / time.Duration(s.Acquisitions)
}

// Mutex is a simulated mutual-exclusion lock with FIFO handoff and
// wait/hold accounting. It models contended kernel and user-level locks
// (i_mutex, lru_lock, client_lock) whose queueing behaviour the paper
// measures.
//
// A waiter is either a parked process (Lock) or a callback run on
// behalf of a parked process (LockOrQueue); both kinds share one FIFO.
type Mutex struct {
	eng      *Engine
	name     string
	owner    *Proc
	lockedAt time.Duration
	waiters  Queue[*Proc] // each with its request in Proc.lock
	stats    LockStats
}

// lockRequest is a process's queued request on a mutex. A process
// waits for at most one mutex at a time, so the request lives in the
// process and the wait queue holds only the process.
type lockRequest struct {
	m       *Mutex
	granted func()        // nil for a process that parks until the handoff
	holder  *Proc         // who held m when the request queued
	since   time.Duration // when it queued
	fire    func()        // reusable grant event of a callback waiter (Proc.lockGranted)
}

// NewMutex creates a named simulated mutex on e.
func NewMutex(e *Engine, name string) *Mutex {
	return &Mutex{eng: e, name: name}
}

// Name returns the lock's debug name.
func (m *Mutex) Name() string { return m.name }

// Stats returns a snapshot of the lock's contention statistics.
func (m *Mutex) Stats() LockStats { return m.stats }

// ResetStats zeroes the accumulated statistics (used at measurement
// window boundaries).
func (m *Mutex) ResetStats() { m.stats = LockStats{} }

// Lock acquires m for p, blocking in FIFO order while it is held.
func (m *Mutex) Lock(p *Proc) {
	if m.LockOrQueue(p, nil) {
		return
	}
	p.park()
	// Ownership was handed off in Unlock; record the wait we endured.
	m.waited(p)
}

// LockOrQueue acquires m for p at once and reports true, or, while m is
// held, queues granted and reports false. granted runs as an engine
// callback once Unlock hands m to p, at the event where Lock would have
// resumed p and after the same wait accounting. p must stay parked
// until then; it lets a process that blocks on a run of locks and timed
// steps park once for the whole run, which callbacks drive to its end.
// (Lock queues a nil granted: the handoff then resumes p itself.)
func (m *Mutex) LockOrQueue(p *Proc, granted func()) bool {
	m.stats.Acquisitions++
	if m.owner == nil {
		m.owner = p
		m.lockedAt = m.eng.now
		return true
	}
	if p.lock.m != nil {
		panic("sim: proc " + p.name + " queued on " + m.name + " while queued on " + p.lock.m.name)
	}
	m.stats.Contended++
	// Blame attribution: the party responsible for this wait is whoever
	// held the lock when we queued, not whoever hands it to us — under
	// FIFO handoff the final owner may be an innocent waiter ahead of us.
	p.lock.m, p.lock.granted, p.lock.holder, p.lock.since = m, granted, m.owner, m.eng.now
	m.waiters.Push(p)
	return false
}

// waited accounts the wait of p, which ends now with m granted to it,
// and clears p's request. It runs at the grant event — the waiter's
// resume, or its callback — never in Unlock, so a ResetStats between
// the two still sees the wait land in the window where the waiter got
// the lock.
func (m *Mutex) waited(p *Proc) {
	r := &p.lock
	wait := m.eng.now - r.since
	m.stats.TotalWait += wait
	if wait > m.stats.MaxWait {
		m.stats.MaxWait = wait
	}
	holder := r.holder
	r.m, r.granted, r.holder = nil, nil, nil
	p.ReportWait("lock", m.name, holder.name, holder.id, wait)
}

// lockGranted is the grant event of p's callback waiter.
func (p *Proc) lockGranted() {
	granted := p.lock.granted
	p.lock.m.waited(p)
	granted()
}

// Unlock releases m, handing ownership directly to the oldest waiter if
// any: a process waiter is woken now, a callback waiter's callback is
// scheduled now. Unlocking a mutex not held by p panics: that is always
// a bug in the simulation model.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner on " + m.name)
	}
	m.stats.TotalHold += m.eng.now - m.lockedAt
	if m.waiters.Len() == 0 {
		m.owner = nil
		return
	}
	next := m.waiters.Pop()
	m.owner = next
	m.lockedAt = m.eng.now
	if next.lock.granted == nil {
		m.eng.scheduleWake(next, m.eng.now)
		return
	}
	if next.lock.fire == nil {
		next.lock.fire = next.lockGranted
	}
	m.eng.After(0, next.lock.fire)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Waiters returns the number of requests queued on the mutex.
func (m *Mutex) Waiters() int { return m.waiters.Len() }
