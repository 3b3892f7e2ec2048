package sim

import "time"

// Resource is a counting semaphore with FIFO admission, used to model
// capacity-limited hardware such as a disk channel or a network link's
// transmit unit.
type Resource struct {
	eng      *Engine
	name     string
	capacity int64
	inUse    int64
	waiters  Queue[resWaiter]

	busySince time.Duration
	busyTime  time.Duration
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource creates a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive: " + name)
	}
	return &Resource{eng: e, name: name, capacity: capacity}
}

// Acquire blocks p until n units are available, then claims them.
// Requests are admitted strictly in FIFO order to avoid starvation.
func (r *Resource) Acquire(p *Proc, n int64) {
	if n > r.capacity {
		panic("sim: Resource.Acquire exceeds capacity on " + r.name)
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.claim(n)
		return
	}
	r.waiters.Push(resWaiter{p: p, n: n})
	p.park()
}

// Release returns n units and admits as many queued waiters as now fit,
// in FIFO order.
func (r *Resource) Release(n int64) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Resource.Release underflow on " + r.name)
	}
	if r.inUse == 0 {
		// The busy period ends here even if a waiter claims the
		// resource at once: claim then opens a new one.
		r.busyTime += r.eng.now - r.busySince
	}
	for r.waiters.Len() > 0 {
		w := r.waiters.At(0)
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters.Pop()
		r.claim(w.n)
		r.eng.scheduleWake(w.p, r.eng.now)
	}
}

func (r *Resource) claim(n int64) {
	if r.inUse == 0 {
		r.busySince = r.eng.now
	}
	r.inUse += n
}

// InUse returns the number of units currently claimed.
func (r *Resource) InUse() int64 { return r.inUse }

// Waiters returns the number of queued acquisition requests.
func (r *Resource) Waiters() int { return r.waiters.Len() }

// BusyTime returns total virtual time during which the resource had at
// least one unit claimed.
func (r *Resource) BusyTime() time.Duration {
	t := r.busyTime
	if r.inUse > 0 {
		t += r.eng.now - r.busySince
	}
	return t
}
