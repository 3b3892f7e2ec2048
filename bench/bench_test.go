package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
)

func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	// Sample milliseconds per bucket, out of 110; the benchmark's own
	// frames (the engine tracer, freeing memory between cases) are other.
	want := map[string]float64{
		bucketSwitch: 40, "cpu": 20, bucketAlloc: 10, bucketGC: 10, "kern": 10, bucketOther: 20,
	}
	for k := range want {
		want[k] /= 110
	}
	for k := range shares {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected share %q = %v", k, shares[k])
		}
	}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-9 {
			t.Errorf("share %q = %v, want %v", k, shares[k], v)
		}
	}
}

func TestParseSampleValue(t *testing.T) {
	for s, want := range map[string]float64{"10ms": 0.01, "1.20s": 1.2, "1.5mins": 90, "250us": 0.00025, "7ns": 7e-9} {
		if got, ok := parseSampleValue(s); !ok || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSampleValue(%q) = %v, %v; want %v", s, got, ok, want)
		}
	}
	if _, ok := parseSampleValue("repro/internal/sim.(*Proc).park"); ok {
		t.Error("a frame parsed as a sample value")
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// syntheticReports stands in for the children of a traced run.
func syntheticReports() (plain []pass, prof, obsRep report) {
	p := pass{AllocBytes: 5e6, CPU: time.Second, GCCycles: 3, Probe: []probeSample{{At: 0, Took: probeRef}}}
	ms := time.Millisecond
	for i, fam := range []string{"D", "F", "K"} {
		p.Cases = append(p.Cases, namedCase{Name: fam + "-1", Family: fam, caseResult: caseResult{
			Digest: digest{Ops: 100}, Start: int64(i) * int64(time.Second), MaxRSSKiB: 10 << 10,
			Built: ms, PrepStart: ms, MeasureStart: 3 * ms,
			MeasureEnd: 3*ms + time.Duration(i+1)*100*ms, End: time.Duration(i+1) * 110 * ms,
		}})
	}
	prof = report{Pass: p, Engine: engineCounts{Callbacks: 10, Resumes: 90, ProcSwitches: 80, Procs: 5}}
	obsRep = report{Pass: p, Stack: newStackTally().metrics()}
	return []pass{p, p, p}, prof, obsRep
}

// TestCaseMedians: a phase's time is scaled by the mean speed of the
// probe jobs that started in it, or of the nearest one, and a run's
// time sums each case's median over the passes.
func TestCaseMedians(t *testing.T) {
	sec := int64(time.Second)
	// Case a runs from 0 to 1 s, case b from 10 s to 14 s.
	p := func(a, b time.Duration, probe ...probeSample) pass {
		return pass{Probe: probe, Cases: []namedCase{
			{Name: "a", caseResult: caseResult{Start: 0, End: a}},
			{Name: "b", caseResult: caseResult{Start: 10 * sec, End: b}},
		}}
	}
	// In case a the probe job ran at the reference speed and at half of
	// it; no probe job started in case b's first second, and the nearest
	// ran at half.
	half := math.Pow(0.5, simExponent)
	slow := p(time.Second, 4*time.Second,
		probeSample{sec / 10, probeRef}, probeSample{sec / 2, 2 * probeRef}, probeSample{20 * sec, 2 * probeRef})
	if got, want := caseWall(slow, slow.Cases[0].caseResult), (1+half)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("case a = %v, want %v", got, want)
	}
	if got := slow.ref(slow.Cases[1].caseResult, 0, time.Second); math.Abs(got-half) > 1e-9 {
		t.Errorf("case b's first second = %v, want %v", got, half)
	}
	// Without probe samples a time is left as measured. Medians: a of
	// {0.71, 3, 2} = 2; b of {4 half = 1.68, 1, 9} = 1.68.
	ps := []pass{slow, p(3*time.Second, time.Second), p(2*time.Second, 9*time.Second)}
	if got, want := caseMedians(ps, caseWall, allCases), 2+4*half; math.Abs(got-want) > 1e-9 {
		t.Errorf("caseMedians = %v, want %v", got, want)
	}
}

func TestDropStalls(t *testing.T) {
	us := time.Microsecond
	var in []probeSample
	for i, took := range []time.Duration{400 * us, 410 * us, 5 * time.Millisecond, 390 * us, 800 * us} {
		in = append(in, probeSample{At: int64(i), Took: took})
	}
	got := dropStalls(in)
	if len(got) != 4 || got[2].At != 3 || got[3].Took != 800*us {
		t.Errorf("dropStalls kept %+v, want every sample but the 5 ms one", got)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	plain, prof, obsRep := syntheticReports()

	check := func(kind string, declared, inCode []metricDecl, emitted map[string]float64) {
		t.Helper()
		sortDecls := func(d []metricDecl) []metricDecl {
			d = append([]metricDecl(nil), d...)
			sort.Slice(d, func(i, j int) bool { return d[i].Name < d[j].Name })
			return d
		}
		declared, inCode = sortDecls(declared), sortDecls(inCode)
		if len(declared) != len(inCode) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(declared), len(inCode))
		}
		for i := range declared {
			if declared[i] != inCode[i] {
				t.Errorf("%s: BENCHMARK.json has %+v, the benchmark %+v", kind, declared[i], inCode[i])
			}
		}
		for _, d := range declared {
			if _, ok := emitted[d.Name]; !ok {
				t.Errorf("%s: declared metric %s is not emitted", kind, d.Name)
			}
		}
		for name, v := range emitted {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q has a character outside [A-Za-z0-9_.-]", kind, name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", kind, name, v)
			}
		}
		if len(emitted) != len(declared) {
			t.Errorf("%s: %d metrics emitted, %d declared", kind, len(emitted), len(declared))
		}
	}

	check("end_to_end", b.EndToEnd, endToEnd, plainMetrics(plain))
	check("per_layer", b.PerLayer, perLayer(), tracedMetrics(plain, prof, obsRep, map[string]float64{}))

	if len(b.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(allWorkloads))
	}
	for i, w := range b.Workloads {
		if w.Name != allWorkloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, allWorkloads[i].Name)
		}
	}
}

func TestCommittedDigestsCoverEveryCase(t *testing.T) {
	d, err := loadCommitted()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, c := range w.Cases {
			got, ok := d[w.Name][c.name()]
			if !ok || got.Ops == 0 || got.Events == 0 {
				t.Errorf("%s %s: committed digest %+v (present %v)", w.Name, c.name(), got, ok)
			}
		}
	}
}

// TestDigestsBySeed runs one small case: equal seeds give equal
// digests, seed 1 gives the committed one, and seed 2 another.
func TestDigestsBySeed(t *testing.T) {
	c := caseSpec{core.ConfigK, 1}
	a := runFileserverObserved(c, 1, hooks{}).Digest
	b := runFileserverObserved(c, 1, hooks{}).Digest
	other := runFileserverObserved(c, 2, hooks{}).Digest
	if a != b {
		t.Errorf("seed 1 twice: %+v vs %+v", a, b)
	}
	if sameDigest(a, other) {
		t.Errorf("seeds 1 and 2 gave the same digest %+v", a)
	}
	d, err := loadCommitted()
	if err != nil {
		t.Fatal(err)
	}
	if want := d["fileserver-observed"][c.name()]; !sameDigest(a, want) {
		t.Errorf("seed 1 digest %+v, committed %+v", a, want)
	}
}

func TestCheckDigestsNamesMismatch(t *testing.T) {
	w := &workload{Name: "w", Cases: []caseSpec{{core.ConfigD, 1}}}
	p := func(ops uint64) pass {
		return pass{Cases: []namedCase{{Name: "D-1", caseResult: caseResult{Digest: digest{Ops: ops}}}}}
	}
	if got, failed := checkDigests(w, 2, p(5), p(5)); len(got) != 0 || failed != 0 {
		t.Errorf("equal passes: %v, %d failed", got, failed)
	}
	got, failed := checkDigests(w, 2, p(5), p(6), p(5))
	if len(got) != 1 || failed != 1 || !regexp.MustCompile(`workload w case D-1`).MatchString(got[0]) {
		t.Errorf("differing passes: %v, %d failed", got, failed)
	}
	// At seed 1 every run is also held to the committed digest, which
	// this workload does not have.
	if got, failed := checkDigests(w, 1, p(5), p(5)); failed != 2 {
		t.Errorf("no committed digest: %v, %d failed", got, failed)
	}
}

// TestCompareFailures: equal runs compare clean; more failed cases,
// more failed simulated ops, or another digest at the same seed is a
// regression even when every metric is unchanged.
func TestCompareFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		path := dir + "/" + name
		for _, r := range recs {
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	rec := func(seed int64, failed, simErrors uint64) record {
		return record{
			Workload: "w", Seed: seed,
			Digests: map[string]digest{"D-1": {Ops: 100, Errors: simErrors}},
			result: result{Correct: true, Attempted: 10, Failed: failed,
				Metrics: map[string]metricValue{"wall_s": {2, "s"}}},
		}
	}
	spec := dir + "/BENCHMARK.json"
	if err := os.WriteFile(spec, []byte(`{"workloads": [{"name": "w"}], "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base := write("base.jsonl", rec(1, 0, 3), rec(2, 0, 3))
	for _, tc := range []struct {
		name   string
		change record
		want   bool
	}{
		{"same", rec(1, 0, 3), false},
		{"failed case", rec(1, 1, 3), true},
		{"failed sim ops", rec(3, 0, 4), true},
		{"other digest", rec(2, 0, 2), true},
	} {
		regressed, err := compareFiles(base, write(tc.name+".jsonl", tc.change), spec, io.Discard)
		if err != nil || regressed != tc.want {
			t.Errorf("%s: regressed %v, %v; want %v", tc.name, regressed, err, tc.want)
		}
	}
}

func TestFlagErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "bogus"},
		{"--seed", "one"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--no-such-flag"},
		{"-compare", "only-one.jsonl"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", q)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		change         []float64
		higherIsBetter bool
		want           string
	}{
		{"faster", scaled(0.8), false, "improved"},
		{"slower", scaled(1.2), false, "regressed"},
		{"same", base, false, "unchanged"},
		{"throughput up", scaled(1.2), true, "improved"},
		{"too few pairs", scaled(0.8)[:5], false, "unchanged"},
	} {
		if got := judge(base, tc.change, tc.higherIsBetter, 0.1).Outcome; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}
	if got := judge(noisy, noisy, false, 0.1).Outcome; got != "unresolved" {
		t.Errorf("noisy parent: %s, want unresolved", got)
	}
}
