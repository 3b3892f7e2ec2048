package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// sampleTrace builds a small canonical trace by hand.
func sampleTrace() *Trace {
	streams := map[int64][]Op{
		7: {
			{Tenant: "a", Kind: "open", Path: "/f", Flags: 1, Issue: 10, Latency: 5},
			{Tenant: "a", Kind: "write", Path: "/f", Offset: 4096, Len: 512, Issue: 15, Latency: 9, Err: true},
			{Tenant: "a", Kind: "close", Path: "/f", Issue: 24, Latency: 1},
		},
		3: {
			{Tenant: "b", Kind: "rename", Path: "/x", Path2: "/y", Issue: 12, Latency: 3},
		},
	}
	return assemble("sample", streams)
}

func TestAssembleCanonicalizes(t *testing.T) {
	tr := sampleTrace()
	if got := len(tr.Ops); got != 4 {
		t.Fatalf("ops = %d, want 4", got)
	}
	// Stream 7 issues first (t=10) so it gets rank 0; stream 3 rank 1.
	wantStreams := []int{0, 1, 0, 0}
	wantKinds := []string{"open", "rename", "write", "close"}
	for i, op := range tr.Ops {
		if op.Seq != i {
			t.Errorf("op %d: seq = %d", i, op.Seq)
		}
		if op.Stream != wantStreams[i] || op.Kind != wantKinds[i] {
			t.Errorf("op %d: (stream %d, %s), want (%d, %s)",
				i, op.Stream, op.Kind, wantStreams[i], wantKinds[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Label != tr.Label {
		t.Errorf("label %q, want %q", back.Label, tr.Label)
	}
	if len(back.Ops) != len(tr.Ops) {
		t.Fatalf("ops %d, want %d", len(back.Ops), len(tr.Ops))
	}
	for i := range tr.Ops {
		if back.Ops[i] != tr.Ops[i] {
			t.Errorf("op %d: %+v != %+v", i, back.Ops[i], tr.Ops[i])
		}
	}
	var again bytes.Buffer
	if err := back.Write(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != first {
		t.Error("write→read→write is not byte-identical")
	}
	if back.Schedule() != tr.Schedule() || back.ScheduleHash() != tr.ScheduleHash() {
		t.Error("schedule changed across round trip")
	}
}

func TestReadErrorPaths(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty", "", "empty file"},
		{"garbage header", "not json\n", "bad header"},
		{"wrong version", `{"danaus_op_trace":99,"label":"x","ops":0}` + "\n", "unsupported version"},
		{"not a trace", `{"hello":"world"}` + "\n", "unsupported version"},
		{"truncated", strings.Join(lines[:len(lines)-1], "\n") + "\n", "truncated"},
		{"corrupt op line", lines[0] + "\n{broken\n", "line 2"},
		{"seq out of order", lines[0] + "\n" + lines[2] + "\n" + lines[1] + "\n" + lines[3] + "\n" + lines[4] + "\n", "out of order"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(c.input))
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestRecorderCapturesViaObsSink(t *testing.T) {
	var now time.Duration
	rec := obs.New(obs.Config{Clock: func() time.Duration { return now }})
	cap := NewRecorder("unit", 0)
	cap.SetBase(5)
	cap.Attach(rec)

	now = 10
	sp := rec.StartSpan(42, "tenant0", "read")
	now = 30
	rec.OpDone(sp, "/data", "", 0, 4096, 1024, 1024, nil)
	sp.End(1024, nil)

	now = 31
	sp2 := rec.StartSpan(43, "tenant1", "open")
	now = 40
	rec.OpDone(sp2, "/other", "", 3, 0, 0, 0, fmt.Errorf("boom"))
	sp2.End(0, fmt.Errorf("boom"))

	if cap.Count() != 2 {
		t.Fatalf("captured %d ops, want 2", cap.Count())
	}
	tr := cap.Snapshot()
	want := []Op{
		{Seq: 0, Stream: 0, Tenant: "tenant0", Kind: "read", Path: "/data", Offset: 4096, Len: 1024, Issue: 5, Latency: 20},
		{Seq: 1, Stream: 1, Tenant: "tenant1", Kind: "open", Path: "/other", Flags: 3, Issue: 26, Latency: 9, Err: true},
	}
	for i := range want {
		if tr.Ops[i] != want[i] {
			t.Errorf("op %d: %+v, want %+v", i, tr.Ops[i], want[i])
		}
	}
}

func TestOpSinkIgnoresNestedSpans(t *testing.T) {
	rec := obs.New(obs.Config{Clock: func() time.Duration { return 0 }})
	cap := NewRecorder("unit", 0)
	cap.Attach(rec)
	// A nil span is what the traced facade passes for nested crossings.
	rec.OpDone(nil, "/ignored", "", 0, 0, 0, 0, nil)
	if cap.Count() != 0 {
		t.Errorf("nested (nil-span) op was captured")
	}
}

func TestRecorderCap(t *testing.T) {
	rec := obs.New(obs.Config{Clock: func() time.Duration { return 0 }})
	cap := NewRecorder("unit", 2)
	cap.Attach(rec)
	for i := 0; i < 5; i++ {
		sp := rec.StartSpan(1, "t", "read")
		rec.OpDone(sp, "/f", "", 0, 0, 0, 0, nil)
		sp.End(0, nil)
	}
	if cap.Count() != 2 || cap.Dropped() != 3 {
		t.Errorf("count=%d dropped=%d, want 2/3", cap.Count(), cap.Dropped())
	}
}

func TestOpSequenceInvariantUnderLatencyDrift(t *testing.T) {
	a := sampleTrace()
	b := sampleTrace()
	// Shift issue times and latencies the way a slower replay would.
	for i := range b.Ops {
		b.Ops[i].Issue += time.Duration(i) * 7
		b.Ops[i].Latency *= 3
	}
	if a.Schedule() == b.Schedule() {
		t.Error("schedules should differ after issue-time drift")
	}
	if a.OpSequence() != b.OpSequence() {
		t.Error("op sequence must be invariant under timing drift")
	}
}

func TestTailOfKnownDistribution(t *testing.T) {
	h := metrics.NewHistogram()
	// 1..1000 µs uniformly: p50 ≈ 500µs, p99 ≈ 990µs, p999 ≈ 999µs.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	tail := TailOf(h)
	if tail.Count != 1000 {
		t.Fatalf("count %d", tail.Count)
	}
	check := func(name string, got, want time.Duration) {
		// The histogram's exponential buckets promise ~3% relative error.
		diff := float64(got-want) / float64(want)
		if diff < -0.04 || diff > 0.04 {
			t.Errorf("%s = %v, want %v ±4%%", name, got, want)
		}
	}
	check("p50", tail.P50, 500*time.Microsecond)
	check("p99", tail.P99, 990*time.Microsecond)
	check("p999", tail.P999, 999*time.Microsecond)
}

func TestCompareFlagsScheduleAndSequence(t *testing.T) {
	a := sampleTrace()

	identical := sampleTrace()
	d := Compare(a, identical)
	if !d.ScheduleEqual || !d.SequenceEqual {
		t.Error("identical traces must compare schedule- and sequence-equal")
	}

	drifted := sampleTrace()
	drifted.Ops[2].Issue += 100
	d = Compare(a, drifted)
	if d.ScheduleEqual {
		t.Error("drifted issue time must break schedule equality")
	}
	if !d.SequenceEqual {
		t.Error("drifted issue time must preserve sequence equality")
	}

	rewritten := sampleTrace()
	rewritten.Ops[2].Len = 999
	d = Compare(a, rewritten)
	if d.SequenceEqual {
		t.Error("rewritten op must break sequence equality")
	}
}

func TestCompareRatios(t *testing.T) {
	mk := func(lat time.Duration) *Trace {
		streams := map[int64][]Op{}
		for s := int64(0); s < 4; s++ {
			var ops []Op
			for i := 0; i < 250; i++ {
				ops = append(ops, Op{
					Tenant: "t0", Kind: "read", Path: "/f",
					Issue: time.Duration(i) * time.Millisecond, Latency: lat,
				})
			}
			streams[s] = ops
		}
		return assemble("mk", streams)
	}
	d := Compare(mk(time.Millisecond), mk(3*time.Millisecond))
	rows := d.TenantRows()
	if len(rows) != 1 {
		t.Fatalf("tenant rows: %d", len(rows))
	}
	r := rows[0]
	if r.RatioP99() < 2.8 || r.RatioP99() > 3.2 {
		t.Errorf("p99 ratio %.2f, want ~3", r.RatioP99())
	}
	if r.RatioP999() < 2.8 || r.RatioP999() > 3.2 {
		t.Errorf("p999 ratio %.2f, want ~3", r.RatioP999())
	}
	var csv bytes.Buffer
	if err := d.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "t0,*") {
		t.Errorf("CSV missing aggregate row:\n%s", csv.String())
	}
	var led bytes.Buffer
	if err := d.WriteCSVRows(&led, "K"); err != nil {
		t.Fatal(err)
	}
	body := strings.TrimPrefix(csv.String(), DiffCSVHeader+"\n")
	if want := "K," + strings.ReplaceAll(strings.TrimSuffix(body, "\n"), "\n", "\nK,") + "\n"; led.String() != want {
		t.Errorf("led rows:\n%s\nwant the CSV rows behind a K column:\n%s", led.String(), want)
	}
	var rendered bytes.Buffer
	d.Render(&rendered)
	if !strings.Contains(rendered.String(), "tracediff") {
		t.Error("Render missing header line")
	}
}

// TestAssembleDeterministicUnderMapOrder feeds assemble the same
// streams under shuffled map insertion orders: canonicalization must
// not depend on Go map iteration.
func TestAssembleDeterministicUnderMapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	build := func(order []int64) *Trace {
		streams := map[int64][]Op{}
		for _, id := range order {
			streams[id] = []Op{
				{Tenant: "t", Kind: "open", Path: fmt.Sprintf("/f%d", id), Issue: time.Duration(id)},
				{Tenant: "t", Kind: "close", Path: fmt.Sprintf("/f%d", id), Issue: time.Duration(id) + 5},
			}
		}
		return assemble("x", streams)
	}
	ids := []int64{9, 2, 5, 1, 7, 3}
	want := build(ids).Schedule()
	for trial := 0; trial < 10; trial++ {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if got := build(ids).Schedule(); got != want {
			t.Fatalf("assemble depends on map order (trial %d)", trial)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	tr := sampleTrace()
	path := t.TempDir() + "/sample.trace"
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schedule() != tr.Schedule() {
		t.Error("file round trip changed the schedule")
	}
	if _, err := ReadFile(path + ".missing"); err == nil {
		t.Error("reading a missing file must fail")
	}
}
