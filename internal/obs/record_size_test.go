package obs_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestBytesPerRecord bounds what the event logs of a real observed run
// retain per event, chunks included: at most 7 B on average over a
// quick 7-pool K Fileserver run with a RandomIO neighbour, where a CPU
// slice's one record holds two events. A core record and a run wait
// apiece (about 7.5 B per event) fail it, and so do fixed records of
// 24 to 32 B.
func TestBytesPerRecord(t *testing.T) {
	var recs []*obs.Recorder
	attach := func(tb *core.Testbed) {
		rec := obs.New(obs.Config{Clock: tb.Eng.Now, SampleInterval: 10 * time.Millisecond})
		tb.AttachObserver(rec)
		recs = append(recs, rec)
	}
	experiments.RunInterference(experiments.InterferenceCase{Config: core.ConfigK, FLSCount: 7, Neighbor: "RND"},
		experiments.Run{Scale: experiments.QuickScale, Attach: attach})
	events, bytes := 0, 0
	for _, rec := range recs {
		n, b := obs.LogBytes(rec)
		events, bytes = events+n, bytes+b
	}
	per := float64(bytes) / float64(events)
	t.Logf("%d events in %d bytes: %.2f B per event", events, bytes, per)
	if events < 100_000 || per > 7 {
		t.Errorf("%d events in %d bytes: %.2f B per event, want at least 100000 events at most 7 B each", events, bytes, per)
	}
}
