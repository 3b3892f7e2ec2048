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
type Mutex struct {
	eng      *Engine
	name     string
	owner    *Proc
	lockedAt time.Duration
	waiters  Queue[*Proc]
	stats    LockStats
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
	m.stats.Acquisitions++
	if m.owner == nil {
		m.owner = p
		m.lockedAt = m.eng.now
		return
	}
	m.stats.Contended++
	since := m.eng.now
	// Blame attribution: the party responsible for this wait is whoever
	// held the lock when we queued, not whoever hands it to us — under
	// FIFO handoff the final owner may be an innocent waiter ahead of us.
	holder := m.owner
	m.waiters.Push(p)
	p.park()
	// Ownership was handed off in Unlock; record the wait we endured.
	wait := m.eng.now - since
	m.stats.TotalWait += wait
	if wait > m.stats.MaxWait {
		m.stats.MaxWait = wait
	}
	p.ReportWait("lock", m.name, holder.name, holder.id, wait)
}

// Unlock releases m, handing ownership directly to the oldest waiter if
// any. Unlocking a mutex not held by p panics: that is always a bug in
// the simulation model.
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
	m.eng.scheduleWake(next, m.eng.now)
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.owner != nil }

// Waiters returns the number of processes queued on the mutex.
func (m *Mutex) Waiters() int { return m.waiters.Len() }
