package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// sliceFeed hands one CPU slice of proc to a recorder.
type sliceFeed func(r *Recorder, proc, core int, account, kind string, start, dur time.Duration)

// coreThenWait is how a slice reached the recorder before Slice: a core
// record, then the process's "run" wait on "cpu".
func coreThenWait(r *Recorder, proc, core int, account, kind string, start, dur time.Duration) {
	r.Core(core, start, dur, account, kind)
	r.Wait(proc, "run", "cpu", "", 0, start, dur)
}

// streamCounts counts what a slice stream exercised.
type streamCounts struct {
	unbound int // slices on a process with no bound span
	crossed int // slices of a bound process with one record of room left
	cores   int // direct Core calls
}

// sliceStream runs a seeded stream of spans starting and ending, lock
// waits, direct core slices and CPU slices on a recorder capped at max
// records, feeding each CPU slice through feed. It returns the
// recorder and what the stream exercised: slices that ran on a process
// with no bound span, slices of a bound process that arrived with
// exactly one record of room left, so that the cap falls between the
// slice's core record and its run wait, and direct Core calls.
func sliceStream(seed int64, max int, feed sliceFeed) (rec *Recorder, n streamCounts) {
	clock := new(time.Duration)
	*clock = 100
	rec = New(Config{Clock: func() time.Duration { return *clock }, MaxEvents: max})
	rng := rand.New(rand.NewSource(seed))
	accounts := []string{"pool0", "pool1", "kernel", ""}
	kinds := []string{"user", "kernel"}
	spans := map[int]*Span{}
	// The stream opens with a slice of a bound process, so the run
	// wait's names and "" are interned by a slice.
	spans[1] = rec.StartSpan(1, "t1", "read")
	for i := 0; i < 300; i++ {
		*clock += time.Duration(rng.Intn(20))
		proc := 1 + rng.Intn(4)
		op := rng.Intn(10)
		if i == 0 {
			op, proc = 9, 1
		}
		switch {
		case op == 0:
			if sp := spans[proc]; sp != nil {
				sp.End(0, nil)
				delete(spans, proc)
			} else {
				spans[proc] = rec.StartSpan(proc, accounts[rng.Intn(2)], "write")
			}
		case op == 3:
			dur := time.Duration(rng.Intn(9))
			rec.Core(rng.Intn(4), *clock-dur, dur, accounts[rng.Intn(len(accounts))], kinds[rng.Intn(2)])
			n.cores++
		case op < 3:
			holder, holderID := "kflushd", rng.Intn(5)
			if rng.Intn(2) == 0 {
				holder = ""
			}
			dur := time.Duration(1 + rng.Intn(9))
			rec.Wait(proc, "lock", "i_mutex", holder, holderID, *clock-dur, dur)
		default:
			if spans[proc] == nil {
				n.unbound++
			} else if rec.kept == max-1 {
				n.crossed++
			}
			dur := time.Duration(1 + rng.Intn(9))
			feed(rec, proc, rng.Intn(4), accounts[rng.Intn(len(accounts))], kinds[rng.Intn(2)], *clock-dur, dur)
		}
	}
	return rec, n
}

// TestSliceMatchesCoreThenWait feeds one stream of slices to one
// recorder as a core record followed by a run wait, and to another as
// one Slice each, which keeps both in one record: the views, counters,
// symbol ids and table rows must be identical. Direct Core calls are
// interleaved with the waits and slices. Caps from 1 to 120 records put
// MaxEvents at every point of the stream, between a slice's two records
// included, so a slice's record must count as two kept records.
func TestSliceMatchesCoreThenWait(t *testing.T) {
	var all streamCounts
	for max := 1; max <= 120; max++ {
		want, n := sliceStream(int64(max), max, coreThenWait)
		got, _ := sliceStream(int64(max), max, (*Recorder).Slice)
		all = streamCounts{all.unbound + n.unbound, all.crossed + n.crossed, all.cores + n.cores}
		for _, v := range []struct {
			name      string
			got, want any
		}{
			{"CoreEvents", got.CoreEvents(), want.CoreEvents()},
			{"Waits", got.Waits(), want.Waits()},
			{"Slices", got.Slices(), want.Slices()},
			{"Dropped", got.Dropped(), want.Dropped()},
			{"UnattributedWaits", got.UnattributedWaits(), want.UnattributedWaits()},
			{"symbols", got.syms, want.syms},
			{"sites", got.sites.rows, want.sites.rows},
			{"accounts", got.accts.rows, want.accts.rows},
			{"span rows", got.spans.n, want.spans.n},
		} {
			if !reflect.DeepEqual(v.got, v.want) {
				t.Fatalf("max %d: %s differ:\n got %v\nwant %v", max, v.name, v.got, v.want)
			}
		}
	}
	if all.unbound == 0 || all.crossed == 0 || all.cores == 0 {
		t.Fatalf("the streams ran %d slices with no bound span, %d across the cap and %d direct core slices; want each",
			all.unbound, all.crossed, all.cores)
	}
}
