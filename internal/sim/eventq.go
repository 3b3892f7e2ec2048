package sim

import "time"

// event is a pending occurrence in virtual time: either an engine
// callback (fn) or the resumption of a parked process (p).
type event struct {
	at  time.Duration
	seq uint64 // tie-break for identical timestamps: FIFO scheduling order
	fn  func()
	p   *Proc
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue holds the pending events in exact (at, seq) order: a FIFO
// lane for events due at the current instant and a 4-ary min-heap for
// the rest. A large share of pushes are due now (core grants, lock and
// resource handoffs, Yield), and the lane takes them at O(1) instead of
// a sift through a heap hundreds of events deep.
//
// The split keeps the order exact. A lane event was pushed at now, so
// its seq is higher than that of every event queued before it, and the
// clock cannot advance while the lane holds an event due now. The lane
// is therefore sorted by (at, seq), and popping the smaller of the lane
// head and the heap top yields the same sequence a single heap ordered
// by (at, seq) would.
type eventQueue struct {
	lane Queue[event]
	heap []event
}

// push queues ev; now is the engine's clock.
func (q *eventQueue) push(ev event, now time.Duration) {
	if ev.at == now {
		q.lane.Push(ev)
		return
	}
	q.heapPush(ev)
}

// heapPush appends ev and sifts it up as a hole: parents move down into
// the hole until ev fits.
func (q *eventQueue) heapPush(ev event) {
	h := append(q.heap, ev)
	q.heap = h
	last := len(h) - 1
	i := last
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	if i != last {
		h[i] = ev
	}
}

// peek returns the earliest pending event, and whether it heads the lane,
// or nil when none is pending. The pointer is valid until the next push
// or pop.
func (q *eventQueue) peek() (*event, bool) {
	if q.lane.head < len(q.lane.buf) {
		head := &q.lane.buf[q.lane.head]
		if len(q.heap) == 0 || head.before(&q.heap[0]) {
			return head, true
		}
	}
	if len(q.heap) == 0 {
		return nil, false
	}
	return &q.heap[0], false
}

// pop removes and returns the event peek just returned; fromLane is
// peek's second result.
func (q *eventQueue) pop(fromLane bool) event {
	if fromLane {
		return q.lane.Pop()
	}
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release references
	h = h[:n]
	q.heap = h
	if n == 0 {
		return top
	}
	// Hole sift-down from the root: pull the smallest child up into the
	// hole until last fits.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return top
}
