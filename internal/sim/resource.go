package sim

// Resource is a counting semaphore of unit claims with FIFO admission,
// used to model a pool of identical servers such as a FUSE daemon's
// worker threads.
type Resource struct {
	eng      *Engine
	name     string
	capacity int
	inUse    int
	waiters  Queue[*Proc]
}

// NewResource creates a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive: " + name)
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Acquire blocks p until a unit is available, then claims it. Requests
// are admitted strictly in FIFO order.
func (r *Resource) Acquire(p *Proc) {
	if !r.AcquireOrQueue(p, nil) {
		p.park()
	}
}

// AcquireOrQueue claims a unit for p at once and reports true, or, while
// every unit is in use, queues granted and reports false. granted runs
// as an engine callback once Release hands a unit to p, at the event
// where Acquire would have resumed p; p must stay parked until then.
// Both kinds of waiter share one FIFO. (Acquire queues a nil granted:
// the handoff then resumes p itself.)
func (r *Resource) AcquireOrQueue(p *Proc, granted func()) bool {
	// Every claim is one unit, so a queued waiter implies a full
	// resource and a free unit implies an empty queue.
	if r.inUse < r.capacity {
		r.inUse++
		return true
	}
	p.unit = granted
	r.waiters.Push(p)
	return false
}

// Release returns a unit, handing it straight to the oldest waiter if
// any: a process waiter is woken now, a callback waiter's callback is
// scheduled now.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: Resource.Release underflow on " + r.name)
	}
	if r.waiters.Len() == 0 {
		r.inUse--
		return
	}
	next := r.waiters.Pop()
	if granted := next.unit; granted != nil {
		next.unit = nil
		r.eng.After(0, granted)
		return
	}
	r.eng.scheduleWake(next, r.eng.now)
}
