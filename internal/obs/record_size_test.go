package obs_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestBytesPerRecord bounds what the event logs of a real observed run
// retain per record, chunks included: at most 10 B on average over a
// quick 7-pool K Fileserver run with a RandomIO neighbour. Fixed records
// of 24 to 32 B fail it.
func TestBytesPerRecord(t *testing.T) {
	var recs []*obs.Recorder
	attach := func(tb *core.Testbed) {
		rec := obs.New(obs.Config{Clock: tb.Eng.Now, SampleInterval: 10 * time.Millisecond})
		tb.AttachObserver(rec)
		recs = append(recs, rec)
	}
	experiments.RunInterference(experiments.InterferenceCase{Config: core.ConfigK, FLSCount: 7, Neighbor: "RND"},
		experiments.Run{Scale: experiments.QuickScale, Attach: attach})
	records, bytes := 0, 0
	for _, rec := range recs {
		n, b := obs.LogBytes(rec)
		records, bytes = records+n, bytes+b
	}
	per := float64(bytes) / float64(records)
	t.Logf("%d records in %d bytes: %.2f B per record", records, bytes, per)
	if records < 100_000 || per > 10 {
		t.Errorf("%d records in %d bytes: %.2f B per record, want at least 100000 records at most 10 B each", records, bytes, per)
	}
}
