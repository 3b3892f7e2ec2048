package blame

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// newRec returns a recorder with a settable virtual clock.
func newRec() (*obs.Recorder, *time.Duration) {
	now := new(time.Duration)
	return obs.New(obs.Config{Clock: func() time.Duration { return *now }}), now
}

func TestBucketOf(t *testing.T) {
	cases := []struct{ kind, resource, want string }{
		{"run", "cpu", BucketCPURun},
		{"runq", "cpu", BucketRunqueue},
		{"net", "client.nic", BucketNet},
		{"osd", "osd.media", BucketOSD},
		{"mds", "mds.cpu", BucketMDS},
		{"disk", "sda", BucketDisk},
		{"waitq", "dirty_throttle", BucketThrottle},
		{"waitq", "reap", "wait:reap"},
		{"lock", "fls0.q", BucketIPCQueue},
		{"lock", "mds.cpu", BucketMDS},
		{"lock", "osd.media", BucketOSD},
		{"lock", "client.xmit", BucketNet},
		{"lock", "sda.chan", BucketDisk},
		{"lock", "i_mutex", "lock:i_mutex"},
		{"lock", "lru_lock", "lock:lru_lock"},
	}
	for _, c := range cases {
		if got := bucketOf(c.kind, c.resource); got != c.want {
			t.Errorf("bucketOf(%s,%s) = %s, want %s", c.kind, c.resource, got, c.want)
		}
	}
}

// TestDecomposeInvariant builds two synthetic requests and checks the
// core contract: the buckets of each request sum exactly to its span
// duration, with the unexplained time in "other" and cache hits
// detected from the absence of backend buckets.
func TestDecomposeInvariant(t *testing.T) {
	rec, now := newRec()

	// Request 1 (tenant fls0): 2ms cpu + 3ms lock + 4ms net + 1ms unexplained.
	sp := rec.StartSpan(1, "fls0", "read")
	rec.Wait(1, "run", "cpu", "", 0, 0, ms(2))
	rec.Wait(1, "lock", "i_mutex", "kflushd", 0, ms(2), ms(3))
	rec.Wait(1, "net", "client.nic", "", 0, ms(5), ms(4))
	*now = ms(10)
	sp.End(4096, nil)

	// Request 2 (tenant fls0): pure cpu, fully explained — a cache hit.
	sp2 := rec.StartSpan(1, "fls0", "read")
	rec.Wait(1, "run", "cpu", "", 0, ms(10), ms(5))
	*now = ms(15)
	sp2.End(4096, nil)

	rep := Decompose("unit", rec)
	if rep.Requests != 2 || len(rep.PerRequest) != 2 {
		t.Fatalf("want 2 requests, got %+v", rep)
	}
	for _, r := range rep.PerRequest {
		var sum time.Duration
		for _, b := range r.Buckets {
			sum += b.Dur
		}
		if sum != r.Dur {
			t.Errorf("span %d: sum(buckets)=%s != dur=%s", r.Span, sum, r.Dur)
		}
	}
	r1, r2 := rep.PerRequest[0], rep.PerRequest[1]
	if BucketDur(r1.Buckets, BucketOther) != ms(1) {
		t.Errorf("residual wrong: %+v", r1.Buckets)
	}
	if r1.CacheHit || !r2.CacheHit {
		t.Errorf("cache-hit detection wrong: r1=%v r2=%v", r1.CacheHit, r2.CacheHit)
	}

	if len(rep.Tenants) != 1 {
		t.Fatalf("want 1 tenant, got %+v", rep.Tenants)
	}
	tn := rep.Tenants[0]
	if tn.Tenant != "fls0" || tn.Requests != 2 || tn.CacheHits != 1 || tn.Total != ms(15) {
		t.Errorf("tenant aggregate wrong: %+v", tn)
	}
	if got := BucketDur(tn.Buckets, BucketCPURun); got != ms(7) {
		t.Errorf("aggregated cpu-run = %s, want 7ms", got)
	}
	if len(tn.Ops) != 1 || tn.Ops[0].Op != "read" || tn.Ops[0].Requests != 2 {
		t.Errorf("op aggregate wrong: %+v", tn.Ops)
	}
}

// TestInterferenceMatrix checks aggressor resolution: the holder's
// bound tenant wins, the raw holder name is the fallback, runqueue
// waits use the occupant account, and cells sort deterministically.
func TestInterferenceMatrix(t *testing.T) {
	rec, now := newRec()

	// Aggressor proc 2 runs a span for tenant "rnd" and holds i_mutex.
	agg := rec.StartSpan(2, "rnd", "randio")
	// Victim proc 1 (tenant fls0) waits on that lock: HolderTenant
	// resolves through proc 2's binding.
	vic := rec.StartSpan(1, "fls0", "read")
	rec.Wait(1, "lock", "i_mutex", "randio", 2, 0, ms(4))
	// A second wait on an unbound holder falls back to the raw name.
	rec.Wait(1, "lock", "lru_lock", "kflushd", 0, ms(4), ms(2))
	// Runqueue interference names the account directly (no holder id).
	rec.Wait(1, "runq", "cpu", "kernel", 0, ms(6), ms(3))
	// Non-contended kinds are excluded from the matrix.
	rec.Wait(1, "net", "client.nic", "", 0, ms(9), ms(1))
	*now = ms(10)
	vic.End(0, nil)
	agg.End(0, nil)

	cells := Interference(rec)
	if len(cells) != 3 {
		t.Fatalf("want 3 cells, got %+v", cells)
	}
	want := []Cell{
		{Victim: "fls0", Aggressor: "kernel", Resource: "cpu", Wait: ms(3), Count: 1},
		{Victim: "fls0", Aggressor: "kflushd", Resource: "lru_lock", Wait: ms(2), Count: 1},
		{Victim: "fls0", Aggressor: "rnd", Resource: "i_mutex", Wait: ms(4), Count: 1},
	}
	for i, c := range cells {
		if c != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, c, want[i])
		}
	}

	var buf bytes.Buffer
	RenderMatrix(&buf, cells)
	out := buf.String()
	if !strings.Contains(out, "fls0") || !strings.Contains(out, "i_mutex") {
		t.Errorf("rendered matrix missing content:\n%s", out)
	}
}

func TestParseWhatIf(t *testing.T) {
	w, err := ParseWhatIf("nic=2x,osd=4x,lockcs=0.5,flusher=pinned")
	if err != nil {
		t.Fatal(err)
	}
	if w.NICScale != 2 || w.OSDScale != 4 || w.LockCSScale != 0.5 || !w.FlusherPinned {
		t.Errorf("parsed wrong: %+v", w)
	}
	if w2, err := ParseWhatIf("nic=1.5"); err != nil || w2.NICScale != 1.5 {
		t.Errorf("bare scale should parse: %+v %v", w2, err)
	}
	for _, bad := range []string{"nic=fast", "turbo=2x", "flusher=faster", "lockcs=-1", "nic"} {
		if _, err := ParseWhatIf(bad); err == nil {
			t.Errorf("ParseWhatIf(%q) should fail", bad)
		}
	}
}

func TestWhatIfApply(t *testing.T) {
	p := *model.Default()
	base := p
	w := WhatIf{NICScale: 2, OSDScale: 2, LockCSScale: 0.5}
	w.Apply(&p)
	if p.ClientNICBytesPerSec != 2*base.ClientNICBytesPerSec ||
		p.ServerNICBytesPerSec != 2*base.ServerNICBytesPerSec {
		t.Errorf("NIC not scaled: %d vs %d", p.ClientNICBytesPerSec, base.ClientNICBytesPerSec)
	}
	if p.OSDRamdiskBytesPerSec != 2*base.OSDRamdiskBytesPerSec {
		t.Errorf("OSD not scaled")
	}
	if p.IMutexHold != base.IMutexHold/2 || p.LRULockHoldPerPage != base.LRULockHoldPerPage/2 ||
		p.WritebackLockHold != base.WritebackLockHold/2 || p.ClientLockHold != base.ClientLockHold/2 {
		t.Errorf("lock holds not scaled: %+v", p)
	}
	// Quantum etc untouched.
	if p.Quantum != base.Quantum || p.MDSOpCost != base.MDSOpCost {
		t.Errorf("unrelated params changed")
	}
}

// TestWhatIfPredict pins the prediction arithmetic on a hand-built
// report: mean latency minus the shrunk share of each affected bucket.
func TestWhatIfPredict(t *testing.T) {
	base := Report{
		Tenants: []TenantBlame{{
			Tenant: "fls0", Requests: 2, Total: ms(20),
			Buckets: []Bucket{
				{Name: BucketCPURun, Dur: ms(4)},
				{Name: BucketNet, Dur: ms(8)},
				{Name: "lock:i_mutex", Dur: ms(6)},
				{Name: BucketOther, Dur: ms(2)},
			},
		}},
		Interference: []Cell{
			{Victim: "fls0", Aggressor: "kernel", Resource: "cpu", Wait: ms(2), Count: 1},
		},
	}
	// nic=2x: net 8ms -> saves 4ms. lockcs=0.5: lock 6ms -> saves 3ms.
	// pinned: kernel runq 2ms -> saves 2ms. Total saved 9ms over 2
	// requests = 4.5ms off the 10ms mean.
	w := WhatIf{NICScale: 2, OSDScale: 1, LockCSScale: 0.5, FlusherPinned: true}
	pred := w.Predict(base)
	want := ms(10) - ms(9)/2
	if got := pred["fls0"]; got != want {
		t.Errorf("predicted mean = %s, want %s", got, want)
	}

	measured := Report{Tenants: []TenantBlame{{Tenant: "fls0", Requests: 4, Total: ms(24)}}}
	cmp := CompareWhatIf(w, base, measured)
	if len(cmp.Rows) != 1 {
		t.Fatalf("want 1 row: %+v", cmp)
	}
	r := cmp.Rows[0]
	if r.Baseline != ms(10) || r.Predicted != want || r.Measured != ms(6) {
		t.Errorf("comparison row wrong: %+v", r)
	}
	var buf bytes.Buffer
	RenderWhatIf(&buf, cmp)
	if !strings.Contains(buf.String(), "fls0") {
		t.Errorf("rendered what-if missing tenant:\n%s", buf.String())
	}
}

// TestWriteCSVQuoting checks the blame CSV schema survives a
// standards-conforming reader even with hostile labels.
func TestWriteCSVQuoting(t *testing.T) {
	rep := Report{
		Label: `sweep,K "quick"`,
		Tenants: []TenantBlame{{
			Tenant: "fls,0", Requests: 3,
			Buckets: []Bucket{{Name: BucketCPURun, Dur: ms(1)}},
		}},
		Interference: []Cell{
			{Victim: "fls,0", Aggressor: `agg"r`, Resource: "i_mutex", Wait: ms(2), Count: 5},
		},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("blame CSV does not parse: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("want header + 2 rows, got %d", len(rows))
	}
	b := rows[1]
	if b[0] != "blame" || b[1] != rep.Label || b[2] != "fls,0" || b[3] != BucketCPURun ||
		b[5] != "1000000" || b[6] != "3" {
		t.Errorf("blame row did not round-trip: %q", b)
	}
	i := rows[2]
	if i[0] != "interference" || i[2] != "fls,0" || i[3] != `agg"r` || i[4] != "i_mutex" ||
		i[5] != "2000000" || i[6] != "5" {
		t.Errorf("interference row did not round-trip: %q", i)
	}
}

// TestWriteJSONDeterministic re-encodes the same report and requires
// byte-identical output.
func TestWriteJSONDeterministic(t *testing.T) {
	rec, now := newRec()
	sp := rec.StartSpan(1, "fls0", "read")
	rec.Wait(1, "run", "cpu", "", 0, 0, ms(2))
	*now = ms(3)
	sp.End(0, nil)
	rep := Analyze("det", rec)

	var a, b bytes.Buffer
	if err := WriteJSON(&a, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&b, []Report{rep}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSON encoding not deterministic")
	}
	if !strings.Contains(a.String(), `"cpu-run"`) {
		t.Errorf("JSON missing bucket: %s", a.String())
	}
}

// TestReportCarriesDrops checks that a report over a recorder that hit
// its cap says so, in JSON and in text, and that one with no drops
// carries no trace of the field.
func TestReportCarriesDrops(t *testing.T) {
	render := func(rep Report) (string, string) {
		var j, txt bytes.Buffer
		if err := WriteJSON(&j, []Report{rep}); err != nil {
			t.Fatal(err)
		}
		Render(&txt, rep)
		return j.String(), txt.String()
	}
	now := new(time.Duration)
	rec := obs.New(obs.Config{Clock: func() time.Duration { return *now }, MaxEvents: 2})
	for i := 0; i < 3; i++ {
		sp := rec.StartSpan(1, "fls0", "read")
		rec.Wait(1, "run", "cpu", "", 0, *now, ms(1))
		*now += ms(1)
		sp.End(0, nil)
	}
	rep := Decompose("capped", rec)
	if rep.Dropped != 4 || rep.Requests != 1 {
		t.Fatalf("dropped %d requests %d, want 4 and 1", rep.Dropped, rep.Requests)
	}
	j, txt := render(rep)
	if !strings.Contains(j, `"dropped_events": 4`) || !strings.Contains(txt, "4 events dropped") {
		t.Errorf("capped report hides its drops:\n%s\n%s", j, txt)
	}
	rep.Dropped = 0
	j, txt = render(rep)
	if strings.Contains(j, "dropped") || strings.Contains(txt, "dropped") {
		t.Errorf("report with no drops mentions them:\n%s\n%s", j, txt)
	}
}
