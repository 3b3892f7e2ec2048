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
// 1990), in front of which one front slot holds the earliest pending
// event whenever a push made it so.
//
// The heap relies on the engine's clock never running backwards: every
// linked event is due at or after last, the radix reference. Bucket 0
// holds the linked events due at last, and bucket i (1..63) those whose
// highest bit differing from last is i-1, that is
// bits.Len64(at ^ last) == i. A push is a Len64 and an append; the
// buckets' time ranges are disjoint and rise with i. Each bucket keeps
// its earliest time (bmin) as events are linked, so the earliest linked
// event is in the lowest non-empty bucket, due at its bmin, and no peek
// scans a bucket.
//
// When the front slot and bucket 0 are empty, peek takes the lowest
// non-empty bucket, sets last to its minimum m and moves the bucket's
// events in order into the buckets below it, all empty at that point:
// those due at m land in bucket 0. Each event moves down at most 63
// times in all, and last moves only here.
//
// A push strictly earlier than every pending event takes the front slot
// instead of a bucket; peek and pop then serve it without touching a
// bucket. If the slot was held, the event in it, the earliest pending at
// its time, moves to the head of its bucket.
//
// The order is exactly (at, seq) without a tie-break compare. A push
// carries the highest seq so far and goes to a bucket's tail, the old
// front has the lowest seq of the events at its time and goes to a
// bucket's head, and a move walks one bucket in order into empty
// buckets, so the events of each bucket due at one time stay in seq
// order. Bucket 0 holds every linked event due at last, so with the
// front slot empty its head is the earliest pending event by (at, seq).
//
// The events live in one slab of nodes with a free list, and a bucket
// is a head/tail list of slab indices, so a move relinks indices and
// copies no event. The slab grows only when more events are linked than
// ever before.
type eventQueue struct {
	last  time.Duration // radix reference: every linked event is due at or after it
	floor time.Duration // time of the latest event served: no push may precede it
	front event         // earliest pending event, unlinked, when hasFront
	// hasFront reports that front holds an event; bucket 0 is then empty.
	hasFront bool
	mask     uint64 // bit i set: bucket i is non-empty
	head     [64]int32
	tail     [64]int32
	bmin     [64]time.Duration // earliest time linked in each non-empty bucket
	nodes    []node            // slot 0 unused
	free     int32             // head of the free list of slots
}

// newEventQueue returns an empty queue whose slab holds n linked events
// before it grows. The zero eventQueue is not usable.
func newEventQueue(n int) eventQueue {
	return eventQueue{nodes: make([]node, 1, n+1)}
}

// empty reports whether no event is pending.
func (q *eventQueue) empty() bool { return !q.hasFront && q.mask == 0 }

// push queues ev. Its time must not precede that of the latest event
// served: the engine never schedules into its past.
func (q *eventQueue) push(ev event) {
	if ev.at < q.floor {
		panic(fmt.Sprintf("sim: event due at %v queued after the engine reached %v", ev.at, q.floor))
	}
	if q.hasFront {
		if ev.at >= q.front.at {
			q.link(q.store(ev))
			return
		}
		old := q.front
		q.front = ev
		q.linkHead(q.store(old))
		return
	}
	if q.mask == 0 || ev.at < q.bmin[bits.TrailingZeros64(q.mask)] {
		q.front, q.hasFront = ev, true
		return
	}
	q.link(q.store(ev))
}

// store puts ev in a free slot of the slab and returns the slot.
func (q *eventQueue) store(ev event) int32 {
	i := q.free
	if i != 0 {
		q.free = q.nodes[i].next
		q.nodes[i] = node{ev: ev}
	} else {
		i = int32(len(q.nodes))
		q.nodes = append(q.nodes, node{ev: ev})
	}
	return i
}

// link appends slot i to the tail of its bucket.
func (q *eventQueue) link(i int32) {
	at := q.nodes[i].ev.at
	b := bits.Len64(uint64(at ^ q.last))
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		q.head[b] = i
		q.bmin[b] = at
	} else {
		q.nodes[q.tail[b]].next = i
		q.bmin[b] = min(q.bmin[b], at)
	}
	q.tail[b] = i
}

// linkHead puts slot i, earlier than every linked event, at the head of
// its bucket.
func (q *eventQueue) linkHead(i int32) {
	n := &q.nodes[i]
	b := bits.Len64(uint64(n.ev.at ^ q.last))
	if q.mask&(1<<b) == 0 {
		q.mask |= 1 << b
		q.tail[b] = i
	} else {
		n.next = q.head[b]
	}
	q.head[b] = i
	q.bmin[b] = n.ev.at
}

// peek returns the earliest pending event, or nil when none is pending
// or the earliest is due after limit (a negative limit bounds nothing).
// An event past limit stays where it is, so last never passes the
// engine's clock and pushes made before the clock reaches that event
// stay valid. The pointer is valid until the next push or pop.
func (q *eventQueue) peek(limit time.Duration) *event {
	if q.hasFront {
		if uint64(q.front.at) > uint64(limit) {
			return nil
		}
		return &q.front
	}
	if q.mask&1 == 0 {
		if q.mask == 0 {
			return nil
		}
		b := bits.TrailingZeros64(q.mask)
		m := q.bmin[b]
		if uint64(m) > uint64(limit) {
			return nil
		}
		q.last, q.floor = m, m
		q.mask &^= 1 << b
		h := q.head[b]
		if h == q.tail[b] {
			// A lone event moves to bucket 0 as it is.
			q.mask |= 1
			q.head[0], q.tail[0], q.bmin[0] = h, h, m
			return &q.nodes[h].ev
		}
		for i := h; i != 0; {
			next := q.nodes[i].next
			q.nodes[i].next = 0
			q.link(i)
			i = next
		}
	} else if uint64(q.last) > uint64(limit) {
		return nil
	}
	return &q.nodes[q.head[0]].ev
}

// pop removes and returns the event a non-nil peek just returned.
func (q *eventQueue) pop() event {
	if q.hasFront {
		ev := q.front
		q.front, q.hasFront = event{}, false // release references
		q.floor = ev.at
		return ev
	}
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
