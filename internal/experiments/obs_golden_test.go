package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// runObserved runs one fault-sweep case with an engine event counter
// and, when sample >= 0, an attached recorder (sample is its
// SampleInterval; 0 records spans but schedules no sampler events).
// sample < 0 runs without any recorder.
func runObserved(sample time.Duration) (FaultSweepRow, *obs.Recorder, int) {
	var rec *obs.Recorder
	events := 0
	attach := func(tb *core.Testbed) {
		tb.Eng.SetTracer(func(sim.TraceEvent) { events++ })
		if sample >= 0 {
			rec = obs.New(obs.Config{
				Clock:          tb.Eng.Now,
				SampleInterval: sample,
				MaxEvents:      200_000,
			})
			tb.AttachObserver(rec)
		}
	}
	row := RunFaultSweep(FaultSweepCases(QuickScale)[0], Run{Scale: QuickScale, Attach: attach})
	return row, rec, events
}

// TestObservabilityGolden runs the same recorded fault-sweep case
// twice and requires byte-identical trace and metrics artifacts — the
// determinism contract of OBSERVABILITY.md — and that the trace
// attributes flusher writeback work to the originating tenant.
func TestObservabilityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row1, rec1, _ := runObserved(10 * time.Millisecond)
	row2, rec2, _ := runObserved(10 * time.Millisecond)
	if row1 != row2 {
		t.Fatalf("recorded runs diverged:\n  %+v\nvs\n  %+v", row1, row2)
	}

	var t1, t2, m1, m2 bytes.Buffer
	if err := obs.WriteTrace(&t1, []obs.Run{{Label: "run0", Rec: rec1}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTrace(&t2, []obs.Run{{Label: "run0", Rec: rec2}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("trace artifacts not byte-identical across identical runs")
	}
	if err := obs.WriteMetrics(&m1, []obs.Run{{Label: "run0", Rec: rec1}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetrics(&m2, []obs.Run{{Label: "run0", Rec: rec2}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("metrics artifacts not byte-identical across identical runs")
	}

	// Flusher attribution: the victim pool's dirty WAL data recruits
	// writeback, and its spans must carry the originating tenant even
	// though the work runs on a background flusher.
	trace := t1.String()
	if !strings.Contains(trace, `"name":"writeback"`) {
		t.Fatal("trace has no writeback spans")
	}
	if !strings.Contains(trace, `"op":"writeback","tenant":"fls0"`) {
		t.Fatal("writeback spans not tagged with the originating tenant")
	}
	if !strings.Contains(trace, `"cat":"core"`) {
		t.Fatal("trace has no core slices")
	}
	if !strings.Contains(m1.String(), `"core_util_pct"`) {
		t.Fatal("metrics missing the sampled core_util_pct series")
	}
}

// TestObservabilityZeroOverhead verifies the zero-overhead-when-
// disabled contract: a run with no recorder and a run with a recorder
// whose sampler is off execute the exact same engine schedule (event
// for event) and produce identical rows — the recorder only reads the
// virtual clock.
func TestObservabilityZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rowOff, _, eventsOff := runObserved(-1)
	rowOn, rec, eventsOn := runObserved(0)
	if rowOff != rowOn {
		t.Fatalf("recorder changed results:\n  %+v\nvs\n  %+v", rowOff, rowOn)
	}
	if eventsOff != eventsOn {
		t.Fatalf("recorder changed the engine schedule: %d events without, %d with", eventsOff, eventsOn)
	}
	if len(rec.Slices()) == 0 {
		t.Fatal("recorder with sampler off should still record spans")
	}
}

// runMonitored mirrors runObserved but additionally attaches a
// telemetry Monitor behind the recorder. With SampleInterval 0 the
// monitor is purely event-driven: it must see every facade op while
// adding zero engine events.
func runMonitored() (FaultSweepRow, *telemetry.Monitor, int) {
	var mon *telemetry.Monitor
	events := 0
	attach := func(tb *core.Testbed) {
		tb.Eng.SetTracer(func(sim.TraceEvent) { events++ })
		rec := obs.New(obs.Config{
			Clock:          tb.Eng.Now,
			SampleInterval: 0,
			MaxEvents:      200_000,
		})
		tb.AttachObserver(rec)
		mon = telemetry.New(telemetry.Config{
			FastWindow:     50 * time.Millisecond,
			SlowWindow:     250 * time.Millisecond,
			SampleInterval: 0,
			SLOs:           []telemetry.SLO{{Name: "err-burn", Budget: 0.02}},
		})
		tb.AttachMonitor(mon)
	}
	row := RunFaultSweep(FaultSweepCases(QuickScale)[0], Run{Scale: QuickScale, Attach: attach})
	return row, mon, events
}

// TestTelemetryZeroOverhead extends the zero-overhead contract one
// layer up: attaching a telemetry Monitor with its ticker disabled
// (SampleInterval 0) must leave the engine schedule event-identical to
// a bare run and change no results, while the monitor still aggregates
// windows and totals from the event stream alone.
func TestTelemetryZeroOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rowOff, _, eventsOff := runObserved(-1)
	rowOn, mon, eventsOn := runMonitored()
	if rowOff != rowOn {
		t.Fatalf("monitor changed results:\n  %+v\nvs\n  %+v", rowOff, rowOn)
	}
	if eventsOff != eventsOn {
		t.Fatalf("monitor changed the engine schedule: %d events without, %d with", eventsOff, eventsOn)
	}
	if len(mon.Windows()) == 0 {
		t.Fatal("event-driven monitor closed no windows")
	}
	tot := mon.Totals()
	if len(tot) == 0 {
		t.Fatal("event-driven monitor collected no totals")
	}
	var ops uint64
	for _, tt := range tot {
		ops += tt.Ops
	}
	if ops == 0 {
		t.Fatal("event-driven monitor counted zero ops")
	}
}
