package obs

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/allocgate"
)

// TestHotPathAllocs holds the per-event recording paths and a span's
// life, whose span is the last one ended, allocation-free apart from
// log chunks, one per 64 KiB of records, and the first read
// of the three views to their three slices: a decoded record must not
// escape.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "RecordWait", Body: recordWait, N: 10000},
		{Name: "RecordCore", Body: recordCore, N: 10000},
		{Name: "RecordSlice", Body: recordSlice, N: 10000},
		{Name: "SpanEnterExit", Body: spanEnterExit, N: 10000},
		{Name: "SpanStartEnd", Body: spanStartEnd, N: 10000},
		{Name: "ReadViews", Body: readViews, N: 10000},
	})
	// The count includes other goroutines' allocations, so the least
	// of a few tries is the views'.
	best := ^uint64(0)
	for try := 0; try < 5; try++ {
		run := readViews(10000)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best > 3 {
		t.Errorf("reading the three views of 10000 records each: %d allocs, want at most 3", best)
	}
}

// benchRecorder returns an uncapped recorder over a settable clock with
// a span bound to process 3 and a holder serving a span on process 5.
func benchRecorder() (*Recorder, *Span, *time.Duration) {
	clock := new(time.Duration)
	rec := New(Config{Clock: func() time.Duration { return *clock }, MaxEvents: 1 << 30})
	sp := rec.StartSpan(3, "pool0", "read")
	rec.StartSpan(5, "pool1", "write")
	return rec, sp, clock
}

// BenchmarkRecordWait times the per-wait path of an observed run: a
// bound span, a holder serving another span, names already interned.
func BenchmarkRecordWait(b *testing.B) { allocgate.Bench(b, recordWait) }

func recordWait(n int) func() {
	rec, _, clock := benchRecorder()
	kinds := []string{"lock", "runq", "net", "osd"}
	res := []string{"i_mutex", "cpu", "link0", "osd.media"}
	holders := []string{"kflushd", "", "pool1-t0", ""}
	return func() {
		for i := 0; i < n; i++ {
			j := i & 3
			rec.Wait(3, kinds[j], res[j], holders[j], 5*(j&1), *clock, 1)
		}
	}
}

// BenchmarkRecordCore times recording one core slice.
func BenchmarkRecordCore(b *testing.B) { allocgate.Bench(b, recordCore) }

func recordCore(n int) func() {
	rec, _, clock := benchRecorder()
	return func() {
		for i := 0; i < n; i++ {
			*clock++
			rec.Core(i&3, *clock, 1, "pool0", "user")
		}
	}
}

// BenchmarkRecordSlice times the one observation of a CPU slice: its
// core record and the run wait of the span bound to its process.
func BenchmarkRecordSlice(b *testing.B) { allocgate.Bench(b, recordSlice) }

func recordSlice(n int) func() {
	rec, _, clock := benchRecorder()
	return func() {
		for i := 0; i < n; i++ {
			*clock++
			rec.Slice(3, i&3, "pool0", "user", *clock-1, 1)
		}
	}
}

// BenchmarkSpanEnterExit times one layer crossing of a span.
func BenchmarkSpanEnterExit(b *testing.B) { allocgate.Bench(b, spanEnterExit) }

func spanEnterExit(n int) func() {
	_, sp, clock := benchRecorder()
	return func() {
		for i := 0; i < n; i++ {
			*clock++
			sp.Enter(LayerClient).Exit()
		}
	}
}

// BenchmarkSpanStartEnd times one request span's life: started, its
// root slice recorded and its op folded into the registry at End.
func BenchmarkSpanStartEnd(b *testing.B) { allocgate.Bench(b, spanStartEnd) }

func spanStartEnd(n int) func() {
	rec, _, clock := benchRecorder()
	return func() {
		for i := 0; i < n; i++ {
			*clock++
			rec.StartSpan(7, "pool0", "read").End(4096, nil)
		}
	}
}

// BenchmarkReadViews times building the wide views of n waits, core
// slices and layer crossings each.
func BenchmarkReadViews(b *testing.B) { allocgate.Bench(b, readViews) }

func readViews(n int) func() {
	rec, sp, clock := benchRecorder()
	for i := 0; i < n; i++ {
		*clock++
		rec.Wait(3, "lock", "i_mutex", "kflushd", 5, *clock-1, 1)
		rec.Core(i&3, *clock, 1, "pool0", "user")
		sp.Enter(LayerClient).Exit()
	}
	return func() {
		if len(rec.Waits())+len(rec.CoreEvents())+len(rec.Slices()) != 3*n {
			panic("views lost records")
		}
	}
}
