package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestBlameDecompositionInvariant runs the contended blame-sweep case
// at quick scale and checks the engine's core contract on the real
// workload: every traced request's buckets sum exactly to its span
// duration in virtual time, the residual is never negative, and every
// span opened during the run was closed by engine drain.
func TestBlameDecompositionInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := BlameSweepCase{Config: core.ConfigK, FLSCount: 2, Neighbor: true}
	rep, rec := RunBlameSweep(c, QuickScale, nil)

	if leaks := rec.LeakedSpans(); len(leaks) != 0 {
		t.Fatalf("%d spans leaked at engine drain: %v", len(leaks), leaks)
	}
	if rep.Requests == 0 {
		t.Fatal("no traced requests")
	}
	for _, r := range rep.PerRequest {
		var sum time.Duration
		for _, b := range r.Buckets {
			sum += b.Dur
			if b.Name == blame.BucketOther && b.Dur < 0 {
				t.Errorf("span %d (%s %s): negative residual %v — wait intervals overlap",
					r.Span, r.Tenant, r.Op, b.Dur)
			}
		}
		if sum != r.Dur {
			t.Errorf("span %d (%s %s): sum(buckets)=%v != dur=%v",
				r.Span, r.Tenant, r.Op, sum, r.Dur)
		}
	}

	// The contended case must actually show blame: requests spent time
	// on the CPU, and the interference matrix is non-empty.
	var cpuRun time.Duration
	for _, tn := range rep.Tenants {
		cpuRun += blame.BucketDur(tn.Buckets, blame.BucketCPURun)
	}
	if cpuRun == 0 {
		t.Error("no cpu-run time attributed in any tenant")
	}
	if len(rep.Interference) == 0 {
		t.Error("contended run produced an empty interference matrix")
	}
}

// TestBlameSweepGolden requires the exported blame artifacts to be
// byte-identical across two identical runs — the determinism contract
// the blamesweep artifacts inherit from the engine.
func TestBlameSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := BlameSweepCase{Config: core.ConfigK, FLSCount: 2, Neighbor: true}
	rep1, _ := RunBlameSweep(c, QuickScale, nil)
	rep2, _ := RunBlameSweep(c, QuickScale, nil)

	var j1, j2, c1, c2 bytes.Buffer
	if err := blame.WriteJSON(&j1, []blame.Report{rep1}); err != nil {
		t.Fatal(err)
	}
	if err := blame.WriteJSON(&j2, []blame.Report{rep2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Fatal("blame JSON artifacts not byte-identical across identical runs")
	}
	if err := blame.WriteCSV(&c1, []blame.Report{rep1}); err != nil {
		t.Fatal(err)
	}
	if err := blame.WriteCSV(&c2, []blame.Report{rep2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("blame CSV artifacts not byte-identical across identical runs")
	}
	if !strings.Contains(j1.String(), `"cpu-run"`) {
		t.Error("blame JSON missing decomposition buckets")
	}
}

// TestBlameWhatIf exercises the full what-if cycle on the contended
// case: predict from the baseline decomposition, deterministically
// re-run under the modified model, and compare.
func TestBlameWhatIf(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	c := BlameSweepCase{Config: core.ConfigK, FLSCount: 2, Neighbor: true}
	base, _ := RunBlameSweep(c, QuickScale, nil)

	w, err := blame.ParseWhatIf("lockcs=0.5,flusher=pinned")
	if err != nil {
		t.Fatal(err)
	}
	measured, rec := RunBlameSweep(c, QuickScale, &w)
	if leaks := rec.LeakedSpans(); len(leaks) != 0 {
		t.Fatalf("what-if re-run leaked spans: %v", leaks)
	}

	cmp := blame.CompareWhatIf(w, base, measured)
	if len(cmp.Rows) == 0 {
		t.Fatal("what-if comparison has no rows")
	}
	for _, r := range cmp.Rows {
		if r.Baseline <= 0 || r.Predicted <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
		if r.Measured <= 0 {
			t.Errorf("re-run has no measurement for %s: %+v", r.Tenant, r)
		}
	}
	var buf bytes.Buffer
	blame.RenderWhatIf(&buf, cmp)
	if !strings.Contains(buf.String(), "lockcs=0.5") {
		t.Errorf("rendered what-if missing spec:\n%s", buf.String())
	}
}

// runFaultObserved runs the combined-fault sweep case with a recorder
// attached, returning the row and the recording.
func runFaultObserved(t *testing.T) (FaultSweepRow, *obs.Recorder) {
	t.Helper()
	var rec *obs.Recorder
	attach := func(tb *core.Testbed) {
		rec = obs.New(obs.Config{
			Clock:          tb.Eng.Now,
			SampleInterval: 10 * time.Millisecond,
			MaxEvents:      200_000,
		})
		tb.AttachObserver(rec)
	}
	cases := FaultSweepCases(QuickScale)
	var fc *FaultSweepCase
	for i := range cases {
		if cases[i].Schedule != "" {
			fc = &cases[i]
			break
		}
	}
	if fc == nil {
		t.Fatal("no fault-sweep case with a schedule")
	}
	row := RunFaultSweep(*fc, Run{Scale: QuickScale, Attach: attach})
	return row, rec
}

// TestObservabilityUnderFaults closes the fault/observability gap: with
// an active fault schedule (OSD crash + net spike + MDS stall) the
// trace and metrics artifacts must still be byte-identical across
// identical runs, spans must not leak, and the metrics JSON must carry
// the victim's fault-handling counters.
func TestObservabilityUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	row1, rec1 := runFaultObserved(t)
	row2, rec2 := runFaultObserved(t)
	if row1 != row2 {
		t.Fatalf("recorded fault runs diverged:\n  %+v\nvs\n  %+v", row1, row2)
	}
	if row1.Faults.Retries+row1.Faults.Failovers == 0 {
		t.Fatal("fault schedule exercised no fault handling")
	}
	if leaks := rec1.LeakedSpans(); len(leaks) != 0 {
		t.Fatalf("spans leaked under faults: %v", leaks)
	}

	var t1, t2, m1, m2 bytes.Buffer
	if err := obs.WriteTrace(&t1, []obs.Run{{Label: "run0", Rec: rec1}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteTrace(&t2, []obs.Run{{Label: "run0", Rec: rec2}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("trace artifacts differ across identical fault runs")
	}
	if err := obs.WriteMetrics(&m1, []obs.Run{{Label: "run0", Rec: rec1}}); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetrics(&m2, []obs.Run{{Label: "run0", Rec: rec2}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("metrics artifacts differ across identical fault runs")
	}
	if !strings.Contains(m1.String(), `"faults"`) {
		t.Fatal("metrics JSON missing fault counters under an active schedule")
	}
	// The blame engine keeps working mid-fault: decompose the same
	// recording and check the invariant on every traced request.
	rep := blame.Decompose("faults", rec1)
	if rep.Requests == 0 {
		t.Fatal("no traced requests under faults")
	}
	for _, r := range rep.PerRequest {
		var sum time.Duration
		for _, b := range r.Buckets {
			sum += b.Dur
		}
		if sum != r.Dur {
			t.Errorf("span %d: sum(buckets)=%v != dur=%v under faults", r.Span, sum, r.Dur)
		}
	}
}
