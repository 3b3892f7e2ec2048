package sim

import (
	"fmt"
	"math/bits"
	"time"
)

// event is a pending occurrence in virtual time: either an engine
// callback (fn) or the resumption of a parked process (p).
type event struct {
	at  time.Duration
	seq uint64 // tie-break for identical timestamps: FIFO scheduling order
	fn  func()
	p   *Proc
}

// node is one slot of the event queue's slab: a pending event and the
// index of the next node in its bucket (or in the free list); 0 ends a
// list, so slot 0 is never used.
type node struct {
	ev   event
	next int32
}

// eventQueue holds the pending events in exact (at, seq) order as a
// monotone radix heap keyed by at (Ahuja, Mehlhorn, Orlin and Tarjan,
// 1990). It relies on the engine's clock never running backwards: every
// pending event is due at or after last, the time of the latest event
// peek brought to the front. Bucket 0 holds the events due at last, and
// bucket i (1..63) those whose highest bit differing from last is i-1,
// that is bits.Len64(at ^ last) == i. A push is a Len64 and an append;
// the buckets' time ranges are disjoint and rise with i.
//
// When bucket 0 runs empty, peek takes the lowest non-empty bucket,
// finds its earliest time m, sets last = m and moves the bucket's events
// in order into the buckets below it, all empty at that point: those due
// at m land in bucket 0. Each event moves down at most 63 times in all.
//
// The order is exactly (at, seq) without a tie-break compare. A push
// carries the highest seq so far and goes to a bucket's tail, and a move
// walks one bucket in order into empty buckets, so every bucket stays in
// seq order. Bucket 0 holds every event due at last, so its head is the
// earliest pending event by (at, seq).
//
// The events live in one slab of nodes with a free list, and a bucket
// is a head/tail list of slab indices, so a move relinks indices and
// copies no event. The slab grows only when more events are pending
// than ever before.
type eventQueue struct {
	last  time.Duration
	mask  uint64 // bit i set: bucket i is non-empty
	head  [64]int32
	tail  [64]int32
	nodes []node // slot 0 unused
	free  int32  // head of the free list of slots
}

// newEventQueue returns an empty queue whose slab holds n pending events
// before it grows. The zero eventQueue is not usable.
func newEventQueue(n int) eventQueue {
	return eventQueue{nodes: make([]node, 1, n+1)}
}

// empty reports whether no event is pending.
func (q *eventQueue) empty() bool { return q.mask == 0 }

// push queues ev. Its time must not precede that of the last event
// peek returned: the engine never schedules into its past.
func (q *eventQueue) push(ev event) {
	if ev.at < q.last {
		panic(fmt.Sprintf("sim: event due at %v queued after the engine reached %v", ev.at, q.last))
	}
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{ev: ev}
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{ev: ev})
	}
	q.link(bits.Len64(uint64(ev.at^q.last)), i)
}

// link appends slot i to bucket b.
func (q *eventQueue) link(b int, i int32) {
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		q.head[b] = i
	} else {
		q.nodes[q.tail[b]].next = i
	}
	q.tail[b] = i
}

// peek returns the earliest pending event, or nil when none is pending
// or the earliest is due after limit (a negative limit bounds nothing).
// An event past limit stays where it is, so last never passes the
// engine's clock and pushes made before the clock reaches that event
// stay valid. The pointer is valid until the next push or pop.
func (q *eventQueue) peek(limit time.Duration) *event {
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return nil
		}
		b := bits.TrailingZeros64(q.mask)
		h, t := q.head[b], q.tail[b]
		m := q.nodes[h].ev.at
		if h != t {
			for i := q.nodes[h].next; i != 0; i = q.nodes[i].next {
				m = min(m, q.nodes[i].ev.at)
			}
		}
		if uint64(m) > uint64(limit) {
			return nil
		}
		q.last = m
		q.mask &^= 1 << b
		if h == t {
			// A lone event moves to bucket 0 as it is.
			q.mask |= 1
			q.head[0], q.tail[0] = h, h
			return &q.nodes[h].ev
		}
		for i := h; i != 0; {
			n := &q.nodes[i]
			next := n.next
			n.next = 0
			q.link(bits.Len64(uint64(n.ev.at^m)), i)
			i = next
		}
	} else if uint64(q.last) > uint64(limit) {
		return nil
	}
	return &q.nodes[q.head[0]].ev
}

// pop removes and returns the event a non-nil peek just returned.
func (q *eventQueue) pop() event {
	i := q.head[0]
	n := &q.nodes[i]
	ev := n.ev
	if i == q.tail[0] {
		q.mask &^= 1
	} else {
		q.head[0] = n.next
	}
	*n = node{next: q.free} // release references
	q.free = i
	return ev
}
