package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newTestRecorder returns a recorder over a settable fake clock.
func newTestRecorder() (*Recorder, *time.Duration) {
	clock := new(time.Duration)
	rec := New(Config{Clock: func() time.Duration { return *clock }})
	return rec, clock
}

// TestNilSafety calls every exported method of a nil *Recorder, a nil
// *Span and a zero Scope with zero arguments: none may panic, and every
// result must be the zero value (a disabled recorder reports nothing).
func TestNilSafety(t *testing.T) {
	for _, v := range []any{(*Recorder)(nil), (*Span)(nil), Scope{}} {
		rv := reflect.ValueOf(v)
		for i := 0; i < rv.NumMethod(); i++ {
			name := fmt.Sprintf("%T.%s", v, rv.Type().Method(i).Name)
			m := rv.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s panicked: %v", name, p)
					}
				}()
				for k, out := range m.Call(args) {
					if !out.IsZero() {
						t.Errorf("%s result %d = %v, want zero", name, k, out)
					}
				}
			}()
		}
	}
	var rec *Recorder
	rec.OnFinalize(func(*Registry) { t.Fatal("finalizer on nil recorder ran") })
	rec.Finalize()
	rec.SubscribeOps(func(OpEvent) { t.Fatal("op subscriber on nil recorder ran") })
	rec.OpDone(nil, "/f", "", 0, 0, 1, 1, nil)
	rec.SetWaitHook(func(string, string, time.Duration, time.Duration) { t.Fatal("wait hook on nil recorder ran") })
	rec.Wait(1, "lock", "m", "h", 2, 0, time.Millisecond)
	sp := rec.StartSpan(1, "tenant", "read")
	sp.Enter(LayerClient).Exit()
	sp.End(10, nil)
}

func TestSpanRecording(t *testing.T) {
	rec, clock := newTestRecorder()
	sp := rec.StartSpan(7, "fls0", "read")
	*clock = 10
	sc := sp.Enter(LayerClient)
	*clock = 30
	sc.Exit()
	sp.LockWait("client_lock", 5)
	*clock = 40
	sp.End(4096, nil)

	slices := rec.Slices()
	if len(slices) != 2 {
		t.Fatalf("got %d slices, want 2", len(slices))
	}
	cl := slices[0]
	if rec.Str(cl.Layer) != "client" || cl.Start != 10 || cl.Dur != 20 {
		t.Fatalf("client slice wrong: %+v", cl)
	}
	root := slices[1]
	if rec.Str(root.Layer) != "request" || root.Start != 0 || root.Dur != 40 ||
		rec.Str(root.Tenant) != "fls0" || rec.Str(root.Op) != "read" || root.Proc != 7 {
		t.Fatalf("root slice wrong: %+v", root)
	}

	tm := rec.Registry().Tenant("fls0")
	op := tm.Ops()["read"]
	if op == nil || op.Ops != 1 || op.Bytes != 4096 || op.Errors != 0 {
		t.Fatalf("op stats wrong: %+v", op)
	}
	lk := tm.Locks()["client_lock"]
	if lk == nil || lk.Count != 1 || lk.Contended != 1 || lk.Wait != 5 {
		t.Fatalf("lock stats wrong: %+v", lk)
	}
}

func TestSpanError(t *testing.T) {
	rec, _ := newTestRecorder()
	sp := rec.StartSpan(0, "t", "open")
	sp.End(0, errors.New("boom"))
	if !rec.Slices()[0].Err {
		t.Fatal("error not recorded on root slice")
	}
	if rec.Registry().Tenant("t").Ops()["open"].Errors != 1 {
		t.Fatal("error not counted")
	}
}

// TestEndedSpanIsReused checks span recycling: a span started after
// another ended reuses its memory with a fresh id, a fresh table row,
// fresh metrics and no process binding left from its last use.
func TestEndedSpanIsReused(t *testing.T) {
	rec, clock := newTestRecorder()
	first := rec.StartSpan(1, "a", "read")
	first.LockWait("client_lock", 5)
	first.Enter(LayerClient).Exit()
	*clock = 10
	first.End(1, nil)
	rec.Wait(1, "lock", "m", "", 0, 10, 1) // proc 1 serves nothing now
	if rec.UnattributedWaits() != 1 {
		t.Fatalf("a wait after End was attributed")
	}
	second := rec.StartSpan(2, "b", "write")
	if second != first {
		t.Fatal("the ended span was not reused")
	}
	if second.id != 2 || second.row != -1 || second.tm != nil || second.Tenant() != "b" || second.start != 10 {
		t.Fatalf("reused span not reset: id %d row %d tm %v tenant %q start %v",
			second.id, second.row, second.tm, second.Tenant(), second.start)
	}
	second.LockWait("i_mutex", 3)
	*clock = 20
	second.Enter(LayerClient).Exit()
	rec.Wait(2, "lock", "m", "", 0, 19, 1)
	second.End(2, nil)
	third := rec.StartSpan(3, "a", "read")
	if third != first || third.id != 3 {
		t.Fatalf("span ids not sequential: %d", third.id)
	}
	third.End(0, nil)

	type row struct {
		span       uint64
		tenant, op string
		layer      string
	}
	var got []row
	for _, e := range rec.Slices() {
		got = append(got, row{e.Span, rec.Str(e.Tenant), rec.Str(e.Op), rec.Str(e.Layer)})
	}
	want := []row{{1, "a", "read", "client"}, {1, "a", "read", "request"},
		{2, "b", "write", "client"}, {2, "b", "write", "request"}, {3, "a", "read", "request"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slices %+v, want %+v", got, want)
	}
	if w := rec.Waits(); len(w) != 1 || w[0].Span != 2 || rec.Str(w[0].Tenant) != "b" {
		t.Fatalf("waits %+v, want one of span 2", w)
	}
	if rows := rec.spans.n; rows != 3 {
		t.Fatalf("%d span rows, want 3", rows)
	}
	a, b := rec.Registry().Tenant("a"), rec.Registry().Tenant("b")
	if a.Ops()["read"].Ops != 2 || a.Ops()["write"] != nil || b.Ops()["write"].Ops != 1 || b.Ops()["read"] != nil {
		t.Fatal("ops recorded against the wrong tenant")
	}
	if a.Locks()["i_mutex"] != nil || b.Locks()["client_lock"] != nil || b.Locks()["i_mutex"].Wait != 3 {
		t.Fatal("lock waits recorded against the wrong tenant")
	}
	if leaks := rec.LeakedSpans(); len(leaks) != 0 {
		t.Fatalf("leaked %v", leaks)
	}
}

func TestMaxEventsDrop(t *testing.T) {
	clock := new(time.Duration)
	rec := New(Config{Clock: func() time.Duration { return *clock }, MaxEvents: 2})
	rec.Core(0, 0, 1, "a", "user")
	rec.Core(1, 0, 1, "a", "user")
	rec.Core(2, 0, 1, "a", "user") // over cap
	sp := rec.StartSpan(0, "t", "read")
	sp.End(0, nil) // over cap, but registry still updated
	if len(rec.CoreEvents()) != 2 {
		t.Fatalf("cap not enforced: %d core events", len(rec.CoreEvents()))
	}
	if rec.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", rec.Dropped())
	}
	if rec.Registry().Tenant("t").Ops()["read"].Ops != 1 {
		t.Fatal("registry must keep aggregating after the event cap")
	}
}

func TestInternDeterminism(t *testing.T) {
	rec, _ := newTestRecorder()
	a := rec.StartSpan(0, "t0", "read")
	b := rec.StartSpan(0, "t1", "read")
	a.End(0, nil)
	b.End(0, nil)
	if rec.Str(rec.Slices()[0].Tenant) != "t0" || rec.Str(rec.Slices()[1].Tenant) != "t1" {
		t.Fatal("interned tenants resolve wrong")
	}
	// Ids are assigned in first-use order, whichever path (cache or
	// map) answers the repeats.
	rec.Core(0, 0, 1, "pool0", "user")
	rec.Wait(0, "lock", "i_mutex", "", 0, 0, 1) // proc 0 is unbound: not interned
	rec.Core(1, 0, 1, "kernel", "kernel")
	rec.Core(0, 0, 1, strings.Clone("pool0"), "user")
	rec.Mark("", "brownout")
	want := []string{"t0", "read", "t1", "request", "pool0", "user", "kernel", "", "brownout", "event"}
	for i, s := range want {
		if got := rec.Str(Sym(i)); got != s {
			t.Fatalf("sym %d = %q, want %q (first-use order %q)", i, got, s, want)
		}
	}
	if rec.Str(Sym(len(want))) != "" || len(rec.symIdx) != len(want) {
		t.Fatalf("%d syms interned, want %d", len(rec.symIdx), len(want))
	}
}

func TestFinalizeOnce(t *testing.T) {
	rec, _ := newTestRecorder()
	n := 0
	rec.OnFinalize(func(reg *Registry) {
		n++
		reg.Tenant(HostTenant).SetCounter("x", 1)
	})
	rec.Finalize()
	rec.Finalize()
	if n != 1 {
		t.Fatalf("finalizer ran %d times", n)
	}
	if rec.Registry().Tenant(HostTenant).Counters()["x"] != 1 {
		t.Fatal("finalizer effect missing")
	}
}

// buildRun records a small fixed scenario.
func buildRun(label string) Run {
	clock := new(time.Duration)
	rec := New(Config{Clock: func() time.Duration { return *clock }})
	rec.Core(0, 0, 100, "fls0", "user")
	rec.Core(1, 50, 25, "kernel", "kernel")
	for i, tenant := range []string{"fls0", "rnd1"} {
		sp := rec.StartSpan(i, tenant, "write")
		*clock += 10
		sc := sp.Enter(LayerIPC)
		*clock += 5
		sc.Exit()
		sp.End(int64(i*100), nil)
	}
	sp := rec.StartSpan(9, "fls0", "writeback")
	wsc := sp.Enter(LayerWriteback)
	*clock += 3
	wsc.Exit()
	sp.End(512, nil)
	rec.Sample("fls0", "core_util_pct", 10, 42.5)
	rec.Sample(HostTenant, "core_util_pct", 10, 120)
	return Run{Label: label, Rec: rec}
}

func TestWriteTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Run{buildRun("r0"), {Label: "nil", Rec: nil}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.Unit)
	}
	var sawWriteback, sawCore, sawMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			sawMeta = true
		case "X":
			if ev["cat"] == "core" {
				sawCore = true
			}
			if ev["name"] == "writeback" {
				sawWriteback = true
				args := ev["args"].(map[string]any)
				if args["tenant"] != "fls0" {
					t.Fatalf("writeback span lost originating tenant: %v", args)
				}
			}
		}
	}
	if !sawMeta || !sawCore || !sawWriteback {
		t.Fatalf("missing event kinds: meta=%v core=%v writeback=%v", sawMeta, sawCore, sawWriteback)
	}
}

func TestWriteMetricsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, []Run{buildRun("r0")}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Label   string `json:"label"`
			Tenants map[string]struct {
				Ops map[string]struct {
					Count uint64 `json:"count"`
				} `json:"ops"`
				Series map[string]struct {
					Points [][2]float64 `json:"points"`
				} `json:"series"`
			} `json:"tenants"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics is not valid JSON: %v", err)
	}
	fls := doc.Runs[0].Tenants["fls0"]
	if fls.Ops["write"].Count != 1 || fls.Ops["writeback"].Count != 1 {
		t.Fatalf("fls0 ops wrong: %+v", fls.Ops)
	}
	if len(fls.Series["core_util_pct"].Points) != 1 {
		t.Fatalf("series missing: %+v", fls.Series)
	}
}

func TestWriteMetricsCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, []Run{buildRun("r0")}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "run,tenant,series,t_ns,value" {
		t.Fatalf("csv header wrong: %q", lines[0])
	}
	if len(lines) != 3 { // fls0 + host samples
		t.Fatalf("csv rows = %d, want 3: %v", len(lines), lines)
	}
	if lines[1] != "r0,fls0,core_util_pct,10,42.5" {
		t.Fatalf("csv row wrong: %q", lines[1])
	}
}

func TestExportDeterminism(t *testing.T) {
	mk := func() []Run { return []Run{buildRun("r0"), buildRun("r1")} }
	var t1, t2, m1, m2, c1, c2 bytes.Buffer
	if err := WriteTrace(&t1, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&t2, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(t1.Bytes(), t2.Bytes()) {
		t.Fatal("trace export not byte-identical across identical runs")
	}
	if err := WriteMetrics(&m1, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetrics(&m2, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m1.Bytes(), m2.Bytes()) {
		t.Fatal("metrics export not byte-identical across identical runs")
	}
	if err := WriteMetricsCSV(&c1, mk()); err != nil {
		t.Fatal(err)
	}
	if err := WriteMetricsCSV(&c2, mk()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Bytes(), c2.Bytes()) {
		t.Fatal("csv export not byte-identical across identical runs")
	}
}

func BenchmarkWriteTrace(b *testing.B) {
	var clock time.Duration
	rec := New(Config{Clock: func() time.Duration { return clock }})
	for i := 0; i < 200000; i++ {
		clock = time.Duration(i) * 100
		rec.Core(i%8, clock, 50, "acct", "user")
		sp := rec.StartSpan(i%32, "tenant0", "read")
		sc := sp.Enter(LayerClient)
		clock += 30
		sc.Exit()
		sp.End(100, nil)
	}
	runs := []Run{{Label: "r", Rec: rec}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteTrace(io.Discard, runs); err != nil {
			b.Fatal(err)
		}
	}
}
