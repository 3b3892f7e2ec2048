package sim

import (
	"cmp"
	"container/heap"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// eventKey is the (at, seq) identity of one pushed event.
type eventKey struct {
	at  time.Duration
	seq uint64
}

func compareKeys(a, b eventKey) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
}

// oracle records the key of every event a test pushes into an engine
// and the order the engine runs them in.
type oracle struct {
	t      *testing.T
	seed   int64
	e      *Engine
	rng    *rand.Rand
	delay  func() time.Duration
	budget int // callbacks schedule may still push
	pushed []eventKey
	popped []eventKey
	edges  *edges // shared by the oracles of one test
}

// edges counts the queue states the order tests are for, as pushes and
// RunUntil stops reach them.
type edges struct {
	atLast     int // pushes due exactly at the radix reference last
	takeFront  int // pushes that take the front slot
	ontoTies   int // pushes earlier than the front, whose bucket already holds events at the front's time
	atFront    int // pushes due at the front's time
	heldFront  int // RunUntil stops at a deadline short of the front
	heldBucket int // RunUntil stops short of the lowest bucket, front slot and bucket 0 empty
}

// push counts the edges a push due at at reaches in q.
func (c *edges) push(q *eventQueue, at time.Duration) {
	if at == q.last {
		c.atLast++
	}
	switch {
	case !q.hasFront:
		if q.mask == 0 || at < q.bmin[bits.TrailingZeros64(q.mask)] {
			c.takeFront++
		}
	case at == q.front.at:
		c.atFront++
	case at < q.front.at:
		c.takeFront++
		b := bits.Len64(uint64(q.front.at ^ q.last))
		for i := q.head[b]; q.mask&(1<<b) != 0 && i != 0; i = q.nodes[i].next {
			if q.nodes[i].ev.at == q.front.at {
				c.ontoTies++
				break
			}
		}
	}
}

// stop counts the edge a RunUntil that left q non-empty stopped at.
func (c *edges) stop(q *eventQueue) {
	switch {
	case q.hasFront:
		c.heldFront++
	case q.mask&1 == 0:
		c.heldBucket++
	}
}

// require fails t unless every edge was reached at least once.
func (c edges) require(t *testing.T) {
	t.Helper()
	if c.atLast == 0 || c.takeFront == 0 || c.ontoTies == 0 || c.atFront == 0 || c.heldFront == 0 || c.heldBucket == 0 {
		t.Fatalf("edges not covered: %+v", c)
	}
	t.Logf("edges: %+v", c)
}

// key records the key of the event the engine is about to push d from
// now.
func (o *oracle) key(d time.Duration) eventKey {
	k := eventKey{o.e.Now() + d, o.e.seq + 1}
	o.edges.push(&o.e.events, k.at)
	o.pushed = append(o.pushed, k)
	return k
}

// ran records that the event with key k runs now.
func (o *oracle) ran(k eventKey) {
	if o.e.Now() != k.at {
		o.t.Fatalf("seed %d: event due %v ran at %v", o.seed, k.at, o.e.Now())
	}
	o.popped = append(o.popped, k)
}

// schedule pushes a callback that records its own key and pushes up to
// two more, until the budget runs out.
func (o *oracle) schedule() {
	if o.budget == 0 {
		return
	}
	o.budget--
	d := o.delay()
	k := o.key(d)
	o.e.After(d, func() {
		o.ran(k)
		for n := o.rng.Intn(3); n > 0; n-- {
			o.schedule()
		}
	})
}

// parkFor parks p on a timed wake of its own, recorded like a callback.
func (o *oracle) parkFor(p *Proc) {
	d := o.delay()
	k := o.key(d)
	o.e.ScheduleWakeAfter(p, d)
	p.Park()
	o.ran(k)
}

// drain runs the engine in RunUntil steps of deadline(now) until the
// queue is empty, scheduling a callback between some runs, and counts
// the runs that stopped short of an event due past their deadline.
func (o *oracle) drain(deadline func(now time.Duration) time.Duration) {
	for !o.e.events.empty() {
		o.e.RunUntil(deadline(o.e.Now()))
		if !o.e.events.empty() {
			o.edges.stop(&o.e.events)
		}
		if o.rng.Intn(2) == 0 {
			o.schedule() // pushed between runs, possibly due now
		}
	}
}

// check fails the test unless every recorded event ran exactly once, in
// the order of a sort of all recorded pushes by (at, seq). Events the
// test did not record (process starts, wait queue wakes and timeouts)
// run in between; the recorded ones are a subsequence of the full order.
func (o *oracle) check() {
	want := slices.Clone(o.pushed)
	slices.SortFunc(want, compareKeys)
	if !slices.Equal(o.popped, want) {
		for i := range min(len(o.popped), len(want)) {
			if o.popped[i] != want[i] {
				o.t.Fatalf("seed %d: pop %d is %v, sorted order has %v", o.seed, i, o.popped[i], want[i])
			}
		}
		o.t.Fatalf("seed %d: popped %d events, pushed %d", o.seed, len(o.popped), len(want))
	}
}

// TestEventQueueMatchesSortedOrder is an oracle test of the radix heap
// at microsecond scale: over random schedules with many equal
// timestamps, events pushed at the current instant from callbacks (also
// while a parking process drains callbacks inline), from processes and
// from between RunUntil calls, and deadlines both on and between
// timestamps, the engine must run every event exactly once, at its own
// timestamp, in the order of a sort of all pushed events by (at, seq).
// The schedules must reach the front slot's edges: a push that takes
// it, one earlier than the front onto a bucket already holding events
// at the front's time (the old front must go to that bucket's head),
// one due at the front's time, and a deadline short of the front.
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	var seen edges
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &oracle{t: t, seed: seed, e: NewEngine(), rng: rng, budget: 2000, edges: &seen}
		// Few distinct timestamps: most events tie with others.
		o.delay = func() time.Duration {
			if rng.Intn(3) == 0 {
				return 0
			}
			return time.Duration(rng.Intn(4)) * time.Microsecond
		}
		for i := 0; i < 20; i++ {
			o.schedule()
		}
		// Processes push callbacks, then park on a timed wake of their
		// own: the park's inline drain runs callbacks that push more
		// events due now.
		for i := 0; i < 3; i++ {
			o.e.Go("p", func(p *Proc) {
				for j := 0; j < 30; j++ {
					for n := rng.Intn(3); n > 0; n-- {
						o.schedule()
					}
					o.parkFor(p)
				}
			})
		}
		// Deadlines on a timestamp or halfway between two.
		o.drain(func(now time.Duration) time.Duration {
			d := now + time.Duration(rng.Intn(3))*time.Microsecond
			if rng.Intn(2) == 0 {
				d += time.Microsecond / 2
			}
			return d
		})
		o.check()
	}
	seen.require(t)
}

// TestEventQueueWideSpreadMatchesSortedOrder is the same oracle over the
// key spans of the model's timers: nanosecond CPU and lock delays mixed
// with 500 ms compaction waits and multi-second writeback intervals,
// timestamps just below, on and just above multiples of powers of two
// (where an event's bucket changes), pushes due exactly at the queue's
// last time, RunUntil deadlines short of the earliest pending event
// (peek must leave its bucket in place) or of the front slot, followed
// by pushes between runs, the front slot's edges as in
// TestEventQueueMatchesSortedOrder, and wait queue timeouts left dead
// by an earlier signal.
func TestEventQueueWideSpreadMatchesSortedOrder(t *testing.T) {
	var seen edges
	var signalled, timedOut int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &oracle{t: t, seed: seed, e: NewEngine(), rng: rng, budget: 1500, edges: &seen}
		e := o.e
		o.delay = func() time.Duration {
			switch rng.Intn(7) {
			case 0:
				return 0
			case 1:
				return time.Duration(rng.Intn(1000)) // ns scale
			case 2:
				return 500*time.Millisecond + time.Duration(rng.Intn(3))
			case 3:
				return time.Duration(1+rng.Intn(5)) * time.Second
			case 4, 5:
				// Within 2 ns of the next multiple of 2^k.
				k := 1 + rng.Intn(34)
				edge := (e.Now()>>k + 1) << k
				return max(0, edge-e.Now()+time.Duration(rng.Intn(5)-2))
			default:
				return time.Duration(rng.Intn(4)) * time.Microsecond
			}
		}
		for i := 0; i < 20; i++ {
			o.schedule()
		}
		for i := 0; i < 3; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 30; j++ {
					for n := rng.Intn(3); n > 0; n-- {
						o.schedule()
					}
					o.parkFor(p)
				}
			})
		}
		// Waiters with long timeouts, each signalled by a recorded
		// callback due well before the timeout, or left to time out.
		for i := 0; i < 2; i++ {
			q := NewWaitQueue(e, "q")
			e.Go("waiter", func(p *Proc) {
				for j := 0; j < 20; j++ {
					timeout := []time.Duration{500 * time.Millisecond, 2 * time.Second, 3 * time.Second}[rng.Intn(3)]
					want := e.Now() + timeout
					if rng.Intn(3) != 0 {
						d := time.Duration(rng.Intn(2000))
						want = e.Now() + d
						k := o.key(d)
						e.After(d, func() {
							o.ran(k)
							q.Signal()
						})
						signalled++
					} else {
						timedOut++
					}
					q.WaitTimeout(p, timeout)
					if e.Now() != want {
						t.Fatalf("seed %d: wait resumed at %v, want %v", seed, e.Now(), want)
					}
				}
			})
		}
		o.drain(func(now time.Duration) time.Duration {
			if rng.Intn(2) == 0 {
				return now + time.Duration(rng.Intn(100)) // short of most
			}
			return now + o.delay()
		})
		o.check()
	}
	// The edges the test is for must have been reached.
	seen.require(t)
	if signalled == 0 || timedOut == 0 {
		t.Fatalf("waits not covered: %d signalled and %d timed out", signalled, timedOut)
	}
}

// TestEventQueuePushIntoThePastPanics pins the queue's invariant: an
// event due before the latest one served would run out of order, so
// push rejects it loudly, naming both times. An event served from the
// front slot leaves the radix reference last behind, so the guard holds
// there too; so it does for a bucket's event peek returned and no pop
// has taken yet.
func TestEventQueuePushIntoThePastPanics(t *testing.T) {
	q := newEventQueue(4)
	q.push(event{at: 10, seq: 1})
	if !q.hasFront {
		t.Fatal("a push into an empty queue did not take the front slot")
	}
	q.peek(-1)
	q.pop()
	pushIntoThePast(t, &q, 9, 10)

	q = newEventQueue(4)
	q.push(event{at: 10, seq: 1})
	q.push(event{at: 12, seq: 2})
	q.peek(-1)
	q.pop()
	if ev := q.peek(-1); q.hasFront || ev == nil || ev.at != 12 {
		t.Fatal("the second event is not served from a bucket")
	}
	pushIntoThePast(t, &q, 11, 12)
}

// pushIntoThePast requires a push due at at to panic, naming at and
// reached.
func pushIntoThePast(t *testing.T, q *eventQueue, at, reached time.Duration) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, at.String()) || !strings.Contains(msg, reached.String()) {
			t.Fatalf("panic %q does not name both %v and %v", msg, at, reached)
		}
	}()
	q.push(event{at: at, seq: 99})
	t.Fatalf("a push due at %v after the queue served %v did not panic", at, reached)
}

// keyHeap is a binary heap of event keys, the reference queue of
// TestEventQueueSlabBoundedByPeak and FuzzEventQueue.
type keyHeap []eventKey

func (h keyHeap) Len() int           { return len(h) }
func (h keyHeap) Less(i, j int) bool { return compareKeys(h[i], h[j]) < 0 }
func (h keyHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *keyHeap) Push(x any)        { *h = append(*h, x.(eventKey)) }
func (h *keyHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestEventQueueSlabBoundedByPeak drives the queue alone through a long
// churn whose pending count rises and falls, with keys spread from 1 ns
// to 8 s so that bucket moves cascade through many buckets. Every pop
// must be the (at, seq) minimum of a reference heap. The front slot
// holds one pending event outside the slab, so the slab must hold
// exactly one slot per event at the peak count of events linked in the
// buckets, the pending ones less the front (plus the unused slot 0), in
// a backing array at most twice the peak pending count: its size does
// not depend on how many buckets a move passes through.
func TestEventQueueSlabBoundedByPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := newEventQueue(0)
	var ref keyHeap
	var seq uint64
	peak, peakLinked := 0, 0
	pop := func() {
		ev := q.peek(-1)
		if ev == nil {
			t.Fatalf("peek found no event with %d pending", ref.Len())
		}
		got := q.pop()
		want := heap.Pop(&ref).(eventKey)
		if k := (eventKey{got.at, got.seq}); k != want {
			t.Fatalf("popped %v, want %v", k, want)
		}
	}
	for round := 0; round < 400; round++ {
		target := rng.Intn(1500)
		for ref.Len() < target {
			d := time.Duration(rng.Int63n(1 << rng.Intn(34)))
			seq++
			q.push(event{at: q.floor + d, seq: seq})
			heap.Push(&ref, eventKey{q.floor + d, seq})
			peak = max(peak, ref.Len())
			linked := ref.Len()
			if q.hasFront {
				linked--
			}
			peakLinked = max(peakLinked, linked)
		}
		for ref.Len() > target/2 {
			pop()
		}
	}
	for ref.Len() > 0 {
		pop()
	}
	if !q.empty() || q.peek(-1) != nil {
		t.Fatal("queue not empty after its last pop")
	}
	if got := len(q.nodes) - 1; got != peakLinked {
		t.Errorf("slab holds %d slots for a peak of %d linked events (%d pending)", got, peakLinked, peak)
	}
	if cap(q.nodes) > 2*peak {
		t.Errorf("slab capacity %d exceeds twice the peak of %d pending events", cap(q.nodes), peak)
	}
}

// FuzzEventQueue drives the queue alone through pushes, RunUntil-style
// deadlines and pops decoded from the input, two bytes an operation,
// and checks every peek and pop against a reference heap: a deadline
// must return the (at, seq) minimum exactly when it is due by then, and
// leave it pending. Delays are tie-prone (0 to 3 ns) or spread up to
// 2^47 ns, so pushes land in the front slot, ahead of it, at its time
// and across the radix buckets. The seed corpus, which runs with the
// tests, holds random inputs of each mix.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 2, 0, 1, 0, 2, 3, 0, 0, 1, 3, 0, 3, 0, 3, 0})
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4096)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		if seed%2 == 0 {
			for i := 0; i < len(ops); i += 2 {
				ops[i] &^= 0xc0 // tie-prone delays only
			}
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		q := newEventQueue(0)
		var ref keyHeap
		var seq uint64
		// delay decodes the delay of an operation byte op and a value x.
		delay := func(op, x byte) time.Duration {
			if scale := int(op >> 2); scale >= 16 {
				return time.Duration(x) << (scale - 16)
			}
			return time.Duration(x % 4)
		}
		pop := func() {
			ev := q.peek(-1)
			if ev == nil {
				if ref.Len() != 0 {
					t.Fatalf("peek found no event with %d pending", ref.Len())
				}
				return
			}
			got := q.pop()
			want := heap.Pop(&ref).(eventKey)
			if k := (eventKey{got.at, got.seq}); k != want {
				t.Fatalf("popped %v, want %v", k, want)
			}
		}
		for ; len(ops) >= 2; ops = ops[2:] {
			op, x := ops[0], ops[1]
			switch op % 4 {
			case 0, 1:
				seq++
				at := q.floor + delay(op, x)
				q.push(event{at: at, seq: seq})
				heap.Push(&ref, eventKey{at, seq})
			case 2:
				limit := q.floor + delay(op, x)
				ev := q.peek(limit)
				switch {
				case ref.Len() == 0 || ref[0].at > limit:
					if ev != nil {
						t.Fatalf("peek(%v) returned %v, due after it", limit, eventKey{ev.at, ev.seq})
					}
				case ev == nil:
					t.Fatalf("peek(%v) returned nothing, %v is due", limit, ref[0])
				case (eventKey{ev.at, ev.seq}) != ref[0]:
					t.Fatalf("peek(%v) returned %v, want %v", limit, eventKey{ev.at, ev.seq}, ref[0])
				}
			default:
				pop()
			}
		}
		for ref.Len() > 0 {
			pop()
		}
		if !q.empty() {
			t.Fatal("queue not empty after its last pop")
		}
	})
}
