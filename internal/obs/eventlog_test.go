package obs

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// refRecorder is the reference the chunked recorder is checked against:
// plain appends into growing slices and a map-only interner. It mirrors
// the recorder's contract, not its code: span ids count spans and
// marks, names get ids in first-use order, and an event is stored only
// while fewer than max are stored.
type refRecorder struct {
	max      int
	syms     map[string]Sym
	nextSpan uint64
	bound    map[int]*refSpan
	slices   []SliceEvent
	waits    []WaitEvent
	cores    []CoreEvent
	dropped  uint64
	unattrib uint64
}

type refSpan struct {
	id         uint64
	tenant, op Sym
	start      time.Duration
}

func (o *refRecorder) intern(s string) Sym {
	id, ok := o.syms[s]
	if !ok {
		id = Sym(len(o.syms))
		o.syms[s] = id
	}
	return id
}

func (o *refRecorder) room() bool {
	if len(o.slices)+len(o.waits)+len(o.cores) >= o.max {
		o.dropped++
		return false
	}
	return true
}

// The operations logOps draws, in the order of its weights.
const (
	opStart = iota
	opEnd
	opCross
	opMark
	opWait
	opCore
	numOps
)

// logOps drives a Recorder and a refRecorder through the same random
// interleaving of StartSpan, Span.End, Scope.Exit, Mark, Wait and Core,
// drawn with the given weights, comparing the accessors at random
// points (read, append more, read again) and at the end. It returns the
// reference.
func logOps(t *testing.T, seed int64, maxEvents, ops int, weights [numOps]int) *refRecorder {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var now time.Duration
	rec := New(Config{Clock: func() time.Duration { return now }, MaxEvents: maxEvents})
	ref := &refRecorder{max: maxEvents, syms: map[string]Sym{}, bound: map[int]*refSpan{}}
	names := []string{"", "lock", "runq", "cpu", "i_mutex", "pool0", "pool1", "kernel", "user", "kflushd"}
	for i := 0; i < 24; i++ {
		names = append(names, fmt.Sprintf("n%d", i))
	}
	name := func() string {
		// Equal names at distinct addresses must intern alike.
		return strings.Clone(names[rng.Intn(len(names))])
	}
	open := map[int]*Span{}
	check := func(when string) {
		t.Helper()
		if !slices.Equal(rec.Slices(), ref.slices) || !slices.Equal(rec.Waits(), ref.waits) ||
			!slices.Equal(rec.CoreEvents(), ref.cores) {
			t.Fatalf("seed %d max %d %s: events differ: %d/%d/%d slices/waits/cores, want %d/%d/%d",
				seed, maxEvents, when, len(rec.Slices()), len(rec.Waits()), len(rec.CoreEvents()),
				len(ref.slices), len(ref.waits), len(ref.cores))
		}
		if rec.Dropped() != ref.dropped || rec.UnattributedWaits() != ref.unattrib {
			t.Fatalf("seed %d max %d %s: dropped %d unattributed %d, want %d %d", seed, maxEvents, when,
				rec.Dropped(), rec.UnattributedWaits(), ref.dropped, ref.unattrib)
		}
	}
	for i := 0; i < ops; i++ {
		now += time.Duration(rng.Intn(100))
		proc := 1 + rng.Intn(6)
		op, total := 0, 0
		for _, w := range weights {
			total += w
		}
		for r := rng.Intn(total); r >= weights[op]; op++ {
			r -= weights[op]
		}
		switch op {
		case opStart:
			tenant, opName := name(), name()
			open[proc] = rec.StartSpan(proc, tenant, opName)
			ref.nextSpan++
			ref.bound[proc] = &refSpan{id: ref.nextSpan,
				tenant: ref.intern(tenant), op: ref.intern(opName), start: now}
		case opEnd:
			sp, rs := open[proc], ref.bound[proc]
			if sp == nil {
				continue
			}
			sp.End(0, nil)
			delete(open, proc)
			delete(ref.bound, proc)
			if ref.room() {
				ref.slices = append(ref.slices, SliceEvent{Span: rs.id, Proc: int32(proc),
					Tenant: rs.tenant, Op: rs.op, Layer: ref.intern(string(LayerRequest)),
					Start: rs.start, Dur: now - rs.start})
			}
		case opCross:
			sp, rs := open[proc], ref.bound[proc]
			if sp == nil {
				continue
			}
			l := Layer(name())
			sc := sp.Enter(l)
			start := now
			now += time.Duration(rng.Intn(50))
			sc.Exit()
			if ref.room() {
				ref.slices = append(ref.slices, SliceEvent{Span: rs.id, Proc: int32(proc),
					Tenant: rs.tenant, Op: rs.op, Layer: ref.intern(string(l)), Start: start, Dur: now - start})
			}
		case opMark:
			tenant, mark := name(), name()
			rec.Mark(tenant, mark)
			if ref.room() {
				ref.nextSpan++
				ref.slices = append(ref.slices, SliceEvent{Span: ref.nextSpan, Tenant: ref.intern(tenant),
					Op: ref.intern(mark), Layer: ref.intern(string(LayerEvent)), Start: now})
			}
		case opWait:
			kind, res, holder := name(), name(), name()
			holderID := rng.Intn(8)
			dur := time.Duration(1 + rng.Intn(30))
			rec.Wait(proc, kind, res, holder, holderID, now-dur, dur)
			rs := ref.bound[proc]
			if rs == nil {
				ref.unattrib++
				continue
			}
			if !ref.room() {
				continue
			}
			e := WaitEvent{Span: rs.id, Proc: int32(proc), Tenant: rs.tenant, Op: rs.op,
				Kind: ref.intern(kind), Resource: ref.intern(res), Holder: ref.intern(holder),
				Start: now - dur, Dur: dur}
			if hs := ref.bound[holderID]; holderID != 0 && hs != nil {
				e.HolderTenant = hs.tenant
			} else {
				e.HolderTenant = ref.intern("")
			}
			ref.waits = append(ref.waits, e)
		case opCore:
			account, kind := name(), name()
			core := rng.Intn(4)
			rec.Core(core, now, 7, account, kind)
			if ref.room() {
				ref.cores = append(ref.cores, CoreEvent{Core: int32(core), Start: now, Dur: 7,
					Account: ref.intern(account), Kind: ref.intern(kind)})
			}
		}
		if rng.Intn(1500) == 0 {
			check(fmt.Sprintf("after op %d", i))
		}
	}
	check("at the end")
	for s, id := range ref.syms {
		if rec.Str(id) != s {
			t.Fatalf("sym %d = %q, want %q", id, rec.Str(id), s)
		}
	}
	return ref
}

// TestEventLogMatchesSliceOracle checks the chunked event log, and the
// MaxEvents cap below, at and above a chunk multiple, against plain
// appends. Each capped run skews the mix towards one log, so that this
// log, not just the total, reaches the cap near its chunk boundary.
func TestEventLogMatchesSliceOracle(t *testing.T) {
	balanced := [numOps]int{opStart: 2, opEnd: 2, opCross: 3, opMark: 1, opWait: 6, opCore: 6}
	seed := int64(0)
	for _, heavy := range []int{opCross, opWait, opCore} {
		weights := balanced
		weights[heavy] *= 40
		for _, max := range []int{2*chunkLen - 1, 2 * chunkLen, 2*chunkLen + 1} {
			seed++
			if ref := logOps(t, seed, max, 6*chunkLen, weights); ref.dropped == 0 {
				t.Fatalf("max %d: nothing dropped", max)
			}
		}
	}
	if ref := logOps(t, seed+1, 1<<22, 8*chunkLen, balanced); ref.dropped != 0 || len(ref.waits) <= chunkLen {
		t.Fatalf("uncapped run: %d waits, %d dropped", len(ref.waits), ref.dropped)
	}
	// A read, then more appends, then another read shows the new
	// events, within one chunk and across a chunk boundary.
	rec, _ := newTestRecorder()
	for i := 0; i < chunkLen+2; i++ {
		rec.Core(i, 0, 1, "a", "user")
		if got := rec.CoreEvents(); len(got) != i+1 || got[i].Core != int32(i) {
			t.Fatalf("read after %d cores: %d events", i+1, len(got))
		}
	}
}

func TestInternCache(t *testing.T) {
	// A still-empty slot must not answer for "": it is interned after
	// another name here, so its id is 1, not the empty slot's zero.
	rec, _ := newTestRecorder()
	if rec.intern("x") != 0 || rec.intern("") != 1 || rec.intern("") != 1 {
		t.Fatalf(`"" interned as %d, want 1`, rec.intern(""))
	}
	// Two names sharing a slot evict each other and both keep their id.
	a := "a0"
	var b string
	for i := 1; b == ""; i++ {
		if c := fmt.Sprintf("a%d", i); symSlotOf(c) == symSlotOf(a) {
			b = c
		}
	}
	ida, idb := rec.intern(a), rec.intern(b)
	for i := 0; i < 3; i++ {
		if rec.intern(a) != ida || rec.intern(strings.Clone(b)) != idb {
			t.Fatal("colliding names changed ids")
		}
	}
	// Every answer, cached or not, equals the map's, for names at
	// distinct addresses too.
	for i := 0; i < 1000; i++ {
		s := strings.Clone([]string{"", "x", a, b, "lock", fmt.Sprint(i % 37)}[i%6])
		if id := rec.intern(s); id != rec.symIdx[s] || rec.Str(id) != s {
			t.Fatalf("intern(%q) = %d, map says %d", s, id, rec.symIdx[s])
		}
	}
}

// TestRecordingAllocs pins the per-event path: recording waits, core
// slices and layer crossings over names already seen allocates nothing
// but log chunks, and no more bytes than the chunks hold.
func TestRecordingAllocs(t *testing.T) {
	const n = 4 * chunkLen
	rec, clock := newTestRecorder()
	sp := rec.StartSpan(3, "pool0", "read")
	rec.StartSpan(5, "pool1", "write")
	record := func() {
		for i := 0; i < n; i++ {
			*clock++
			rec.Wait(3, "lock", "i_mutex", "kflushd", 5, *clock, 1)
			rec.Core(i&3, *clock, 1, "pool0", "user")
			sp.Enter(LayerClient).Exit()
		}
	}
	const runs = 3
	allocs := testing.AllocsPerRun(runs, record) // one warm-up run, then runs
	// Per run: n/chunkLen chunks per log; the chunk index of each log
	// grows twice over the runs.
	if limit := 3 * (n/chunkLen + 1); allocs > float64(limit) {
		t.Errorf("%v allocs per %d events of each kind, want <= %d", allocs, n, limit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	record()
	runtime.ReadMemStats(&after)
	kept := n * int(unsafe.Sizeof(WaitEvent{})+unsafe.Sizeof(CoreEvent{})+unsafe.Sizeof(SliceEvent{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(kept+kept/8) {
		t.Errorf("recording %d bytes of events allocated %d bytes", kept, got)
	}
	if rec.Waits()[len(rec.Waits())-1].HolderTenant != rec.intern("pool1") {
		t.Error("holder tenant not resolved from the holder's span")
	}
}

// BenchmarkRecordWait times the per-wait path of an observed run: a
// bound span, a holder serving another span, names already interned.
func BenchmarkRecordWait(b *testing.B) {
	var clock time.Duration
	rec := New(Config{Clock: func() time.Duration { return clock }, MaxEvents: 1 << 30})
	rec.StartSpan(3, "pool0", "read")
	rec.StartSpan(5, "pool1", "write")
	kinds := []string{"lock", "runq", "net", "osd"}
	res := []string{"i_mutex", "cpu", "link0", "osd.media"}
	holders := []string{"kflushd", "", "pool1-t0", ""}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 3
		rec.Wait(3, kinds[j], res[j], holders[j], 5*(j&1), clock, 1)
	}
}
