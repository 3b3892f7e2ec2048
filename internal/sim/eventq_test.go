package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// eventKey is the (at, seq) identity of one pushed event.
type eventKey struct {
	at  time.Duration
	seq uint64
}

// TestEventQueueMatchesSortedOrder is an oracle test of the lane plus
// 4-ary heap: over random schedules with many equal timestamps, events
// pushed at the current instant from callbacks (also while a parking
// process drains callbacks inline), from processes and from between
// RunUntil calls, and deadlines both on and between timestamps, the
// engine must run every event exactly once, at its own timestamp, in
// the order of a sort of all pushed events by (at, seq).
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var pushed, popped []eventKey
		// Few distinct timestamps: most events tie with others.
		delay := func() time.Duration {
			if rng.Intn(3) == 0 {
				return 0
			}
			return time.Duration(rng.Intn(4)) * time.Microsecond
		}
		// schedule pushes a callback that records its own key and pushes
		// up to two more, until the budget runs out.
		budget := 2000
		var schedule func()
		schedule = func() {
			if budget == 0 {
				return
			}
			budget--
			d := delay()
			k := eventKey{e.Now() + d, e.seq + 1}
			pushed = append(pushed, k)
			e.After(d, func() {
				if e.Now() != k.at {
					t.Fatalf("seed %d: event due %v ran at %v", seed, k.at, e.Now())
				}
				popped = append(popped, k)
				for n := rng.Intn(3); n > 0; n-- {
					schedule()
				}
			})
		}
		for i := 0; i < 20; i++ {
			schedule()
		}
		// Processes push callbacks, then park on a timed wake of their
		// own: the park's inline drain runs callbacks that push more
		// events due now.
		for i := 0; i < 3; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 30; j++ {
					for n := rng.Intn(3); n > 0; n-- {
						schedule()
					}
					d := delay()
					k := eventKey{e.Now() + d, e.seq + 1}
					pushed = append(pushed, k)
					e.ScheduleWakeAfter(p, d)
					p.Park()
					if e.Now() != k.at {
						t.Fatalf("seed %d: wake due %v resumed at %v", seed, k.at, e.Now())
					}
					popped = append(popped, k)
				}
			})
		}
		for {
			if top, _ := e.events.peek(); top == nil {
				break
			}
			// Deadlines on a timestamp or halfway between two.
			d := e.Now() + time.Duration(rng.Intn(3))*time.Microsecond
			if rng.Intn(2) == 0 {
				d += time.Microsecond / 2
			}
			e.RunUntil(d)
			if rng.Intn(2) == 0 {
				schedule() // pushed between runs, possibly due now
			}
		}
		want := slices.Clone(pushed)
		slices.SortFunc(want, func(a, b eventKey) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		// Process starts are pushed by Go, not recorded: only keys the
		// test pushed appear in either list.
		if !slices.Equal(popped, want) {
			for i := range min(len(popped), len(want)) {
				if popped[i] != want[i] {
					t.Fatalf("seed %d: pop %d is %v, sorted order has %v", seed, i, popped[i], want[i])
				}
			}
			t.Fatalf("seed %d: popped %d events, pushed %d", seed, len(popped), len(want))
		}
	}
}
