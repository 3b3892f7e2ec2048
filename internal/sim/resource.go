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
	// Every claim is one unit, so a queued waiter implies a full
	// resource and a free unit implies an empty queue.
	if r.inUse < r.capacity {
		r.inUse++
		return
	}
	r.waiters.Push(p)
	p.park()
}

// Release returns a unit, handing it straight to the oldest waiter if
// any.
func (r *Resource) Release() {
	if r.inUse == 0 {
		panic("sim: Resource.Release underflow on " + r.name)
	}
	if r.waiters.Len() > 0 {
		r.eng.scheduleWake(r.waiters.Pop(), r.eng.now)
		return
	}
	r.inUse--
}
