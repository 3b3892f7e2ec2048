package sim

import (
	"cmp"
	"container/heap"
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
	atLast int // pushes due exactly at the queue's last time
}

// key records the key of the event the engine is about to push d from
// now.
func (o *oracle) key(d time.Duration) eventKey {
	k := eventKey{o.e.Now() + d, o.e.seq + 1}
	if k.at == o.e.events.last {
		o.atLast++
	}
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
// queue is empty, scheduling a callback between some runs. It returns
// how many runs stopped short of an event due past their deadline with
// bucket 0 empty, the path where peek leaves the queue as it is.
func (o *oracle) drain(deadline func(now time.Duration) time.Duration) int {
	held := 0
	for !o.e.events.empty() {
		o.e.RunUntil(deadline(o.e.Now()))
		if !o.e.events.empty() && o.e.events.mask&1 == 0 {
			held++
		}
		if o.rng.Intn(2) == 0 {
			o.schedule() // pushed between runs, possibly due now
		}
	}
	return held
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
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &oracle{t: t, seed: seed, e: NewEngine(), rng: rng, budget: 2000}
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
}

// TestEventQueueWideSpreadMatchesSortedOrder is the same oracle over the
// key spans of the model's timers: nanosecond CPU and lock delays mixed
// with 500 ms compaction waits and multi-second writeback intervals,
// timestamps just below, on and just above multiples of powers of two
// (where an event's bucket changes), pushes due exactly at the queue's
// last time, RunUntil deadlines short of the earliest pending event
// (peek must leave its bucket in place) followed by pushes between runs,
// and wait queue timeouts left dead by an earlier signal.
func TestEventQueueWideSpreadMatchesSortedOrder(t *testing.T) {
	var atLast, held, signalled, timedOut int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := &oracle{t: t, seed: seed, e: NewEngine(), rng: rng, budget: 1500}
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
		held += o.drain(func(now time.Duration) time.Duration {
			if rng.Intn(2) == 0 {
				return now + time.Duration(rng.Intn(100)) // short of most
			}
			return now + o.delay()
		})
		o.check()
		atLast += o.atLast
	}
	// The edges the test is for must have been reached.
	if atLast == 0 || held == 0 || signalled == 0 || timedOut == 0 {
		t.Fatalf("edges not covered: %d pushes at last, %d held runs, %d signalled and %d timed-out waits",
			atLast, held, signalled, timedOut)
	}
}

// TestEventQueuePushIntoThePastPanics pins the queue's invariant: an
// event due before the last one peek returned would run out of order, so
// push rejects it loudly, naming both times.
func TestEventQueuePushIntoThePastPanics(t *testing.T) {
	q := newEventQueue(4)
	q.push(event{at: 10, seq: 1})
	q.peek(-1)
	q.pop()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "9ns") || !strings.Contains(msg, "10ns") {
			t.Fatalf("panic %q does not name both times", msg)
		}
	}()
	q.push(event{at: 9, seq: 2})
	t.Fatal("a push into the past did not panic")
}

// keyHeap is a binary heap of event keys, the reference queue of
// TestEventQueueSlabBoundedByPeak.
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
// must be the (at, seq) minimum of a reference heap, and the slab must
// hold exactly one slot per event at the peak pending count (plus the
// unused slot 0), in a backing array at most twice that size: its size
// does not depend on how many buckets a move passes through.
func TestEventQueueSlabBoundedByPeak(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := newEventQueue(0)
	var ref keyHeap
	var seq uint64
	peak := 0
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
			q.push(event{at: q.last + d, seq: seq})
			heap.Push(&ref, eventKey{q.last + d, seq})
			peak = max(peak, ref.Len())
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
	if got := len(q.nodes) - 1; got != peak {
		t.Errorf("slab holds %d slots for a peak of %d pending events", got, peak)
	}
	if cap(q.nodes) > 2*peak {
		t.Errorf("slab capacity %d exceeds twice the peak of %d pending events", cap(q.nodes), peak)
	}
}
