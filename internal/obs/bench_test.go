package obs

import (
	"testing"
	"time"

	"repro/internal/allocgate"
)

// TestHotPathAllocs holds the per-event recording paths allocation-free
// apart from log chunks, one every 4096 events.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "RecordWait", Body: recordWait, N: 10000},
		{Name: "RecordCore", Body: recordCore, N: 10000},
		{Name: "SpanEnterExit", Body: spanEnterExit, N: 10000},
	})
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
