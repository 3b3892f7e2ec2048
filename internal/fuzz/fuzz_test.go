package fuzz

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
)

// The generator must emit only scenarios the runner accepts: parseable
// fault schedules (after @wal resolution), bounded tenant lists, and
// windows inside the measurement window.
func TestGeneratedScenariosAreValid(t *testing.T) {
	for i := 0; i < 200; i++ {
		sc := Generate(7, i)
		if sc.Duration < 60*time.Millisecond || sc.Duration > 160*time.Millisecond {
			t.Fatalf("scenario %d: duration %v out of range", i, sc.Duration)
		}
		if len(sc.Tenants) > 2 {
			t.Fatalf("scenario %d: %d tenants", i, len(sc.Tenants))
		}
		for _, tn := range sc.Tenants {
			if tn.Threads < 1 || tn.Threads > 3 {
				t.Fatalf("scenario %d: tenant threads %d", i, tn.Threads)
			}
		}
		sched := strings.ReplaceAll(sc.Schedule, "@wal", "0")
		plan, err := faults.Parse(sched)
		if err != nil {
			t.Fatalf("scenario %d: schedule %q: %v", i, sc.Schedule, err)
		}
		if err := plan.Validate(1); err != nil {
			t.Fatalf("scenario %d: schedule %q: %v", i, sc.Schedule, err)
		}
		for _, w := range plan.Windows {
			if w.End > sc.Duration {
				t.Fatalf("scenario %d: window end %v past duration %v", i, w.End, sc.Duration)
			}
		}
		if (sc.OfferedLoad > 0) != (sc.AdmitQueue > 0) {
			t.Fatalf("scenario %d: overload dimension half-drawn: ol=%d q=%d", i, sc.OfferedLoad, sc.AdmitQueue)
		}
		if sc.OfferedLoad < 0 || sc.OfferedLoad > 1600 || sc.AdmitQueue < 0 || sc.AdmitQueue > 16 {
			t.Fatalf("scenario %d: overload draw out of range: ol=%d q=%d", i, sc.OfferedLoad, sc.AdmitQueue)
		}
	}
}

// TestGenerateDrawsOverloadDimension confirms the overload dimension
// actually appears in a sweep-sized sample (a dead dimension would
// silently stop exercising the admission invariants).
func TestGenerateDrawsOverloadDimension(t *testing.T) {
	n := 0
	for i := 0; i < 100; i++ {
		if Generate(1, i).OfferedLoad > 0 {
			n++
		}
	}
	if n < 10 {
		t.Fatalf("only %d/100 scenarios drew the overload dimension", n)
	}
}

// TestOverloadScenarioRuns pushes one overloaded, admission-protected
// scenario through the full pipeline and requires the open-loop
// aggressor to have run and every invariant — including the two
// admission invariants — to hold.
func TestOverloadScenarioRuns(t *testing.T) {
	sc := Scenario{
		Seed: 99, Config: core.ConfigD, Replication: 2, Factor: 0.01, CacheFrac: 2,
		Warmup: 10 * time.Millisecond, Duration: 60 * time.Millisecond,
		OfferedLoad: 1600, AdmitQueue: 4,
	}
	o := Evaluate(sc)
	if vs := CheckAll(o); len(vs) > 0 {
		t.Fatalf("overloaded scenario violates invariants: %v", vs)
	}
	if o.Full.OLOffered == 0 {
		t.Fatalf("aggressor offered nothing: %s", o.Full.Summary)
	}
	if len(o.Full.Admission) == 0 {
		t.Fatalf("no admission snapshot despite admitq=4")
	}
}

// TestTraceReplayScenarioRuns pushes one trace-recording scenario
// through the full pipeline: the capture must be non-empty, both
// clean-testbed replays must run, and every invariant — including
// trace-replay-determinism — must hold.
func TestTraceReplayScenarioRuns(t *testing.T) {
	sc := Scenario{
		Seed: 42, Config: core.ConfigD, Replication: 2, Factor: 0.01, CacheFrac: 2,
		Warmup: 10 * time.Millisecond, Duration: 60 * time.Millisecond,
		TraceReplay: true,
	}
	o := Evaluate(sc)
	if vs := CheckAll(o); len(vs) > 0 {
		t.Fatalf("trace-replay scenario violates invariants: %v", vs)
	}
	if o.Full.TraceOps == 0 {
		t.Fatalf("capture empty: %s", o.Full.Summary)
	}
	if len(o.TraceRuns) != 2 {
		t.Fatalf("want 2 trace replays, got %d", len(o.TraceRuns))
	}
	if o.TraceRuns[0].Ops != o.Full.TraceOps {
		t.Fatalf("replay reissued %d of %d captured ops", o.TraceRuns[0].Ops, o.Full.TraceOps)
	}
}

// TestGenerateDrawsTraceReplayDimension confirms the trace dimension
// appears in a sweep-sized sample.
func TestGenerateDrawsTraceReplayDimension(t *testing.T) {
	n := 0
	for i := 0; i < 100; i++ {
		if Generate(1, i).TraceReplay {
			n++
		}
	}
	if n < 10 {
		t.Fatalf("only %d/100 scenarios drew the trace-replay dimension", n)
	}
}

// TestTelemetryScenarioRuns pushes one monitored scenario — with a
// client crash so the error-rate SLO has something to burn on (fault
// windows alone are absorbed by client retries and never error at the
// facade) — through the full pipeline: the monitor must see ops and
// close windows, the ledger must record the outage, and every invariant
// — including telemetry-consistency — must hold.
func TestTelemetryScenarioRuns(t *testing.T) {
	sc := Scenario{
		Seed: 17, Config: core.ConfigD, Replication: 2, Factor: 0.01, CacheFrac: 2,
		Warmup: 10 * time.Millisecond, Duration: 80 * time.Millisecond,
		Crash:     "danaus-crash:victim:20ms-45ms",
		Tenants:   []Tenant{{Workload: "randio", Threads: 1}},
		Telemetry: true,
	}
	o := Evaluate(sc)
	if vs := CheckAll(o); len(vs) > 0 {
		t.Fatalf("telemetry scenario violates invariants: %v", vs)
	}
	if len(o.Full.TelTotals) == 0 || o.Full.TelWindows == 0 {
		t.Fatalf("monitor saw nothing: %s", o.Full.Summary)
	}
	if o.Full.TelAlerts == 0 {
		t.Fatalf("a 25ms client outage burned no error budget: %s", o.Full.Summary)
	}
	if o.Full.TelHash != o.Replay.TelHash {
		t.Fatalf("telemetry artifacts diverged: %s vs %s", o.Full.TelHash, o.Replay.TelHash)
	}
}

// TestGenerateDrawsTelemetryDimension confirms the telemetry dimension
// appears in a sweep-sized sample.
func TestGenerateDrawsTelemetryDimension(t *testing.T) {
	n := 0
	for i := 0; i < 100; i++ {
		if Generate(1, i).Telemetry {
			n++
		}
	}
	if n < 10 {
		t.Fatalf("only %d/100 scenarios drew the telemetry dimension", n)
	}
}

// Generation is a pure function of (baseSeed, index).
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 20; i++ {
		a, b := Generate(3, i), Generate(3, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("scenario %d: %v != %v", i, a, b)
		}
	}
}

// WriteSpec and ParseSpec must round-trip every generated scenario
// (the ID is sweep-local and intentionally not serialized).
func TestSpecRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		sc := Generate(11, i)
		var buf bytes.Buffer
		if err := WriteSpec(&buf, sc, "header comment"); err != nil {
			t.Fatalf("scenario %d: write: %v", i, err)
		}
		got, err := ParseSpec(&buf)
		if err != nil {
			t.Fatalf("scenario %d: parse: %v", i, err)
		}
		sc.ID = 0
		if !reflect.DeepEqual(got, sc) {
			t.Fatalf("scenario %d round-trip:\n got %#v\nwant %#v", i, got, sc)
		}
	}
}

func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, spec := range []string{
		"duration",                      // no key=value
		"duration=60ms\ntenant=bogus:2", // unknown workload
		"duration=60ms\ntenant=kvput:0", // bad thread count
		"duration=60ms\nnope=1",         // unknown key
		"config=D",                      // missing duration
		"duration=60ms\nconfig=Z",       // unknown configuration
	} {
		if _, err := ParseSpec(strings.NewReader(spec)); err == nil {
			t.Fatalf("spec %q parsed without error", spec)
		}
	}
}

// unrunnable are specs the model cannot run, each a copy of the smoke
// spec with one change: more co-tenants than the 64-core host holds
// (which once ended in a core-count panic), a degrade factor that
// passes every comparison (which once ran as if it held), one whose
// media time wrapped negative, a spike latency that kept the run going
// without end and a negative one (which ran as no fault).
func unrunnable(t testing.TB) map[string]string {
	smoke, err := os.ReadFile("testdata/smoke.spec")
	if err != nil {
		t.Fatal(err)
	}
	spec := string(smoke)
	schedule := func(entry string) string {
		s := strings.Replace(spec, "schedule=net-spike:client:1ms:4.2ms-14.4ms", "schedule="+entry, 1)
		if s == spec {
			t.Fatal("smoke spec has no schedule line to replace")
		}
		return s
	}
	return map[string]string{
		"line 48: bad tenant: at most 31 tenants":                                                                                    spec + strings.Repeat("tenant=fileserver:1\n", 32),
		`line 13: bad schedule: faults: bad entry "osd-degrade:0:NaNx:4ms-14ms": bad degrade factor`:                                 schedule("osd-degrade:@wal:NaNx:4ms-14ms"),
		`line 13: bad schedule: faults: bad entry "osd-degrade:0:1e300x:4.2ms-14.4ms": bad degrade factor: 1e+300 above the maximum`: schedule("osd-degrade:0:1e300x:4.2ms-14.4ms"),
		`line 13: bad schedule: faults: bad entry "net-spike:0:9223372036s:4.2ms-14.4ms": bad latency`:                               schedule("net-spike:0:9223372036s:4.2ms-14.4ms"),
		`line 13: bad schedule: faults: bad entry "net-spike:0:-50us:0ms-50ms": bad latency: -50µs outside 0 to 1m0s`:                schedule("net-spike:0:-50us:0ms-50ms"),
	}
}

// ParseSpec rejects a spec the model cannot run with an error naming
// the line and the field: too many co-tenants or workers, and a
// schedule or crash entry faults.Parse rejects.
func TestParseSpecRejectsUnrunnable(t *testing.T) {
	cases := unrunnable(t)
	cases["line 2: bad tenant: want <workload>:<threads> with 1..64 threads"] = "duration=60ms\ntenant=kvput:65"
	cases["line 2: bad crash: "] = "duration=60ms\ncrash=danaus-crash:victim:8ms"
	for want, spec := range cases {
		_, err := ParseSpec(strings.NewReader(spec))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("got error %v, want one containing %q", err, want)
		}
	}
	at := "duration=60ms\n" + strings.Repeat("tenant=fileserver:1\n", MaxTenants-1) + "tenant=kvput:64\nschedule=osd-crash:@wal:1ms-2ms"
	if _, err := ParseSpec(strings.NewReader(at)); err != nil {
		t.Errorf("a spec at the caps: %v", err)
	}
}

// FuzzParseSpec feeds ParseSpec arbitrary bytes: it must return an error
// or a scenario, never panic, and a scenario it accepts must round-trip,
// WriteSpec then ParseSpec then WriteSpec, to identical bytes. The seed
// corpus holds the smoke spec and the unrunnable specs.
func FuzzParseSpec(f *testing.F) {
	smoke, err := os.ReadFile("testdata/smoke.spec")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	for _, spec := range unrunnable(f) {
		f.Add([]byte(spec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, again bytes.Buffer
		if err := WriteSpec(&first, sc); err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("an accepted spec does not read back: %v\n%s", err, first.Bytes())
		}
		if err := WriteSpec(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("WriteSpec→ParseSpec→WriteSpec changed the bytes:\n%s\n%s", first.Bytes(), again.Bytes())
		}
	})
}

// A value the scenario would silently take as unset or run oversized
// is rejected with an error naming its key.
func TestParseSpecRejectsBadValues(t *testing.T) {
	for _, tc := range []struct{ key, val string }{
		{"factor", "NaN"},
		{"factor", "+Inf"},
		{"factor", "-Inf"},
		{"cachefrac", "-1"},
		{"offeredload", "-5"},
		{"admitq", "-2"},
	} {
		_, err := ParseSpec(strings.NewReader("duration=60ms\n" + tc.key + "=" + tc.val))
		if err == nil || !strings.Contains(err.Error(), "bad "+tc.key+":") {
			t.Errorf("%s=%s: got error %v, want one naming %s", tc.key, tc.val, err, tc.key)
		}
	}
	for _, ok := range []string{"factor=0.5", "cachefrac=0", "offeredload=0", "admitq=0"} {
		if _, err := ParseSpec(strings.NewReader("duration=60ms\n" + ok)); err != nil {
			t.Errorf("%s: %v", ok, err)
		}
	}
}

// Regression reproducers from the first fuzz sweeps, shrunk by the
// shrinker. Each pinned a real bug; all must stay green.
var reproSpecs = []struct {
	name string
	bug  string
	spec string
}{
	{
		name: "fp-fsync-durability",
		bug: "zero-data-loss: FSStore.WriteData only moved pages into the " +
			"inner user-level client cache; pagedHandle.Fsync never forwarded " +
			"the sync barrier, so acked WAL bytes were volatile (kern/fsstore.go)",
		spec: `seed=6081629404161346924
config=FP
replication=1
sharedmount=false
factor=0.01
cachefrac=3
warmup=20ms
duration=35ms`,
	},
	{
		name: "shared-mount-fault-double-count",
		bug: "fault-accounting: the observability harvest added a shared " +
			"kernel mount's fault counters once per container, doubling every " +
			"retry and failover for scaleup clones (core/observe.go)",
		spec: `seed=461848893719337019
config=K
replication=2
sharedmount=true
factor=0.03
cachefrac=4
warmup=10ms
duration=30ms
schedule=net-drop:@wal:7:7.2ms-18ms`,
	},
	{
		name: "net-spike-mid-sleep-blame-skew",
		bug: "blame-sum: netsim.Link.Transfer re-read extraLatency after its " +
			"propagation sleep, so a spike window arming mid-sleep inflated " +
			"the reported net wait and drove the span's \"other\" residual " +
			"negative (netsim/netsim.go)",
		spec: `seed=4550845468758065865
config=D
replication=1
sharedmount=false
factor=0.03
cachefrac=4
warmup=20ms
duration=120ms
schedule=net-spike:client:1ms:70.8ms-94.8ms`,
	},
}

func TestShrunkReproducersStayFixed(t *testing.T) {
	for _, rs := range reproSpecs {
		rs := rs
		t.Run(rs.name, func(t *testing.T) {
			sc, err := ParseSpec(strings.NewReader(rs.spec))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if vs := CheckAll(Evaluate(sc)); len(vs) > 0 {
				t.Errorf("regressed: %s", rs.bug)
				for _, v := range vs {
					t.Errorf("  %v", v)
				}
			}
		})
	}
}

// Two sweeps of the same (N, seed) must produce byte-identical output
// and the same aggregate hash — the replay-determinism contract at the
// sweep level.
func TestSweepDeterministic(t *testing.T) {
	run := func() (Summary, string) {
		var buf bytes.Buffer
		sum, err := Sweep(Options{N: 4, Seed: 1, Out: &buf})
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return sum, buf.String()
	}
	sum1, out1 := run()
	sum2, out2 := run()
	if sum1.Violations != 0 {
		t.Fatalf("seed-1 smoke sweep found violations:\n%s", out1)
	}
	if sum1.AggregateHash != sum2.AggregateHash {
		t.Fatalf("aggregate hash diverged: %s vs %s", sum1.AggregateHash, sum2.AggregateHash)
	}
	if out1 != out2 {
		t.Fatalf("sweep output diverged:\n--- run 1\n%s--- run 2\n%s", out1, out2)
	}
}

// Reproducer specs written by the sweep parse back to the scenario the
// shrinker produced.
func TestSweepWritesParseableRepros(t *testing.T) {
	// A synthetic always-fails oracle is not reachable through Sweep
	// (it uses DefaultOracle), so exercise the writer directly.
	sc := Generate(1, 0)
	var buf bytes.Buffer
	if err := WriteSpec(&buf, sc, "violation: synthetic: detail"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "# danaus fuzz scenario spec v1\n# violation: synthetic: detail\n") {
		t.Fatalf("spec header malformed:\n%s", buf.String())
	}
	if _, err := ParseSpec(&buf); err != nil {
		t.Fatalf("parse: %v", err)
	}
}

// scheduledFaultTime feeds the isolation bound; it must sum window
// lengths and ignore malformed entries rather than fail.
func TestScheduledFaultTime(t *testing.T) {
	sc := Scenario{Schedule: "osd-crash:@wal:10ms-30ms;mds-stall:5ms-10ms"}
	if got := scheduledFaultTime(sc); got != 25*time.Millisecond {
		t.Fatalf("scheduledFaultTime = %v, want 25ms", got)
	}
	if got := scheduledFaultTime(Scenario{}); got != 0 {
		t.Fatalf("empty schedule: %v, want 0", got)
	}
}

func TestGenerateSeedVariesByIndex(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 100; i++ {
		sc := Generate(1, i)
		if prev, dup := seen[sc.Seed]; dup {
			t.Fatalf("scenarios %d and %d share workload seed %d", prev, i, sc.Seed)
		}
		seen[sc.Seed] = i
		if sc.ID != i {
			t.Fatalf("scenario %d has ID %d", i, sc.ID)
		}
		_ = strconv.Itoa(i)
	}
}

// A model panic inside a scenario is that scenario's panic violation:
// the sweep reports it, shrinks it and goes on with the next scenario,
// whose lines match those of a sweep where nothing panicked.
func TestSweepRecoversPanic(t *testing.T) {
	target := Generate(1, 1).Seed
	eval := func(sc Scenario) *Outcome {
		if sc.Seed == target {
			// Panic where the model does: inside a simulated process.
			e := sim.NewEngine()
			e.Go("model", func(*sim.Proc) { panic("memacct: underflow on injected") })
			e.Run()
		}
		return Evaluate(sc)
	}
	var clean, buf bytes.Buffer
	if _, err := Sweep(Options{N: 3, Seed: 1, Out: &clean}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	sum, err := Sweep(Options{N: 3, Seed: 1, Out: &buf, evaluate: eval})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sum.Violations != 1 || sum.ByChecker[PanicChecker] != 1 {
		t.Fatalf("sweep counted %d violations (%v), want one %q violation:\n%s", sum.Violations, sum.ByChecker, PanicChecker, buf.String())
	}
	lines := func(b *bytes.Buffer, prefix string) []string {
		var out []string
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, prefix) {
				out = append(out, l)
			}
		}
		return out
	}
	want := fmt.Sprintf("fuzz 0001 %s VIOLATION panic: memacct: underflow on injected", Generate(1, 1))
	if got := lines(&buf, "fuzz 0001 "); len(got) != 2 || got[0] != want || !strings.HasPrefix(got[1], "fuzz 0001 shrunk to: ") {
		t.Errorf("panicking scenario reported %q, want %q and its shrunk form", got, want)
	}
	for _, prefix := range []string{"fuzz 0000 ", "fuzz 0002 "} {
		if got, want := lines(&buf, prefix), lines(&clean, prefix); !slices.Equal(got, want) {
			t.Errorf("scenario lines %q, want %q as without the panic", got, want)
		}
	}
	if got := DefaultOracle(Generate(1, 0)); len(got) != 0 {
		t.Errorf("DefaultOracle on a clean scenario: %v", got)
	}
	panicking := func(Scenario) *Outcome { panic("boom") }
	if got := oracleOf(panicking)(Generate(1, 0)); len(got) != 1 || got[0] != (Violation{PanicChecker, "boom"}) {
		t.Errorf("oracle over a panicking scenario returned %v", got)
	}
}

// TestRunSpecReplaysSmokeSpec replays the committed smoke spec, the
// input of CI's danausbench -fuzzspec step, after a WriteSpec/ParseSpec
// round trip: it is the sweep's first scenario, and it holds every
// invariant.
func TestRunSpecReplaysSmokeSpec(t *testing.T) {
	f, err := os.Open("testdata/smoke.spec")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, Generate(1, 0)) {
		t.Fatalf("smoke spec is %s, want the sweep's first scenario %s", sc, Generate(1, 0))
	}
	var buf bytes.Buffer
	if err := WriteSpec(&buf, sc); err != nil {
		t.Fatal(err)
	}
	again, err := ParseSpec(&buf)
	if err != nil || !reflect.DeepEqual(again, sc) {
		t.Fatalf("round trip gave %s, %v; want %s", again, err, sc)
	}
	var out bytes.Buffer
	if vs := RunSpec(&out, again); len(vs) != 0 || !strings.HasSuffix(out.String(), "  ok: all invariants hold\n") {
		t.Errorf("RunSpec reported %v:\n%s", vs, out.String())
	}
}

// TestRunSpecReportsPanic: a model panic inside a spec's scenario is its
// panic violation, reported as Sweep reports it, not a crash of the
// replay.
func TestRunSpecReportsPanic(t *testing.T) {
	sc := Generate(1, 0)
	eval := func(Scenario) *Outcome {
		e := sim.NewEngine()
		e.Go("model", func(*sim.Proc) { panic("memacct: underflow on injected") })
		e.Run()
		return nil
	}
	var out bytes.Buffer
	vs := runSpec(&out, sc, eval)
	if len(vs) != 1 || vs[0] != (Violation{PanicChecker, "memacct: underflow on injected"}) {
		t.Errorf("runSpec returned %v, want one panic violation", vs)
	}
	want := fmt.Sprintf("spec %s\n  VIOLATION panic: memacct: underflow on injected\n", sc)
	if out.String() != want {
		t.Errorf("runSpec printed %q, want %q", out.String(), want)
	}
}
