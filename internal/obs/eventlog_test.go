package obs

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
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
	// Waits kept with a holder serving a span, with a holder serving
	// none, and with the empty holder name.
	heldBySpan, heldByNone, emptyHolder int
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
	opSlice
	numOps
)

// logOps drives a Recorder and a refRecorder through the same random
// interleaving of StartSpan, Span.End, Scope.Exit, Mark, Wait, Core and
// Slice (a core slice, then the run wait of a bound process), drawn
// with the given weights, comparing the accessors at random
// points (read, append more, read again) and at the end. It returns the
// reference and the recorder.
func logOps(t *testing.T, seed int64, maxEvents, ops int, weights [numOps]int) (*refRecorder, *Recorder) {
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
	sawCap, sawDrop := false, false
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
				ref.heldBySpan++
			} else {
				e.HolderTenant = ref.intern("")
				ref.heldByNone++
			}
			if holder == "" {
				ref.emptyHolder++
			}
			ref.waits = append(ref.waits, e)
		case opCore, opSlice:
			account, kind := name(), name()
			core := rng.Intn(4)
			start, dur := now, time.Duration(7)
			if op == opCore {
				rec.Core(core, start, dur, account, kind)
			} else {
				dur = time.Duration(rng.Intn(3))
				start = now - dur
				rec.Slice(proc, core, account, kind, start, dur)
			}
			if ref.room() {
				ref.cores = append(ref.cores, CoreEvent{Core: int32(core), Start: start, Dur: dur,
					Account: ref.intern(account), Kind: ref.intern(kind)})
			}
			if op == opCore || dur == 0 {
				break
			}
			rs := ref.bound[proc]
			if rs == nil {
				ref.unattrib++
			} else if ref.room() {
				ref.waits = append(ref.waits, WaitEvent{Span: rs.id, Proc: int32(proc), Tenant: rs.tenant, Op: rs.op,
					Kind: ref.intern("run"), Resource: ref.intern("cpu"), Holder: ref.intern(""),
					HolderTenant: ref.intern(""), Start: start, Dur: dur})
			}
		}
		// Read at random points, and where the logs reach the cap and
		// just after the first drop.
		kept := len(ref.slices) + len(ref.waits) + len(ref.cores)
		atCap := kept == maxEvents && !sawCap
		firstDrop := ref.dropped > 0 && !sawDrop
		sawCap, sawDrop = sawCap || atCap, sawDrop || firstDrop
		if rng.Intn(1500) == 0 || atCap || firstDrop {
			check(fmt.Sprintf("after op %d (%d kept, %d dropped)", i, kept, ref.dropped))
		}
	}
	check("at the end")
	for s, id := range ref.syms {
		if rec.Str(id) != s {
			t.Fatalf("sym %d = %q, want %q", id, rec.Str(id), s)
		}
	}
	return ref, rec
}

// TestEventLogMatchesSliceOracle checks the views built from the packed
// logs, and the MaxEvents cap, against plain appends of the wide
// events. The views are read at random points, when the logs reach the
// cap exactly and after the first drop. Each capped run skews the mix
// towards one log, and the caps put that log's last records past its
// first chunk.
func TestEventLogMatchesSliceOracle(t *testing.T) {
	balanced := [numOps]int{opStart: 2, opEnd: 2, opCross: 3, opMark: 1, opWait: 6, opCore: 6, opSlice: 6}
	const ops = 80_000
	seed := int64(0)
	for _, heavy := range []int{opCross, opWait, opCore, opSlice} {
		weights := balanced
		weights[heavy] *= 40
		for _, max := range []int{21_000, 27_000, 33_001} {
			if heavy == opCore || heavy == opSlice {
				// Core records are short, and a CPU slice's record
				// holds two events.
				max *= 2
			}
			seed++
			ref, rec := logOps(t, seed, max, ops, weights)
			if ref.dropped == 0 {
				t.Fatalf("max %d: nothing dropped", max)
			}
			chunks := len(rec.waits.chunks)
			if heavy == opCross {
				chunks = len(rec.slices.chunks)
			}
			if chunks < 2 {
				t.Fatalf("max %d: the heavy log (op %d) holds %d chunk", max, heavy, chunks)
			}
			if ref.heldBySpan == 0 || ref.heldByNone == 0 || ref.emptyHolder == 0 {
				t.Fatalf("max %d: waits held by a span %d, by none %d, by \"\" %d; want each",
					max, ref.heldBySpan, ref.heldByNone, ref.emptyHolder)
			}
		}
	}
	if ref, _ := logOps(t, seed+1, 1<<22, ops, balanced); ref.dropped != 0 || len(ref.waits) < 10_000 {
		t.Fatalf("uncapped run: %d waits, %d dropped", len(ref.waits), ref.dropped)
	}
	// A read, then more appends, then another read shows the new
	// events, within one chunk and across a chunk boundary, while the
	// slice an earlier read returned keeps its contents.
	rec, clock := newTestRecorder()
	sp := rec.StartSpan(1, "a", "read")
	var first []WaitEvent
	for i := 0; len(rec.waits.chunks) < 2 || len(rec.slices.chunks) < 2; i++ {
		*clock = time.Duration(i)
		rec.Core(i, 0, 1, "a", "user")
		rec.Wait(1, "lock", "m", "", 0, *clock, 1)
		sp.Enter(LayerClient).Exit()
		cores, waits, slices := rec.CoreEvents(), rec.Waits(), rec.Slices()
		if len(cores) != i+1 || cores[i].Core != int32(i) || len(waits) != i+1 ||
			waits[i].Start != *clock || len(slices) != i+1 || slices[i].Start != *clock {
			t.Fatalf("read after %d appends: %d/%d/%d cores/waits/slices", i+1, len(cores), len(waits), len(slices))
		}
		if i == 0 {
			first = waits
		}
	}
	if len(first) != 1 || first[0].Start != 0 || first[0].Span != 1 {
		t.Fatalf("first read changed to %+v", first)
	}
}

// recFieldCaps are the most bytes each varint field of a record can
// take, in encoding order: head, core, span row, holder, end and
// duration.
var recFieldCaps = [6]int{5, 5, 5, 5, 10, 10}

// recFieldsOf reports which fields a record of kind carries.
func recFieldsOf(kind uint8) [6]bool {
	return [6]bool{true, hasCore(kind), hasRow(kind), hasHolder(kind), true, true}
}

// recSizes returns the fewest and most bytes a record of kind takes.
func recSizes(kind uint8) (min, max int) {
	for f, has := range recFieldsOf(kind) {
		if has {
			min, max = min+1, max+recFieldCaps[f]
		}
	}
	return min, max
}

// recOfSize returns a record of kind that l encodes, after its last
// append, in exactly n bytes (recSizes' range): each field gets the
// value whose varint takes the bytes it is dealt, the core, the span
// row and the end as deltas.
func recOfSize(l *eventLog, kind uint8, n int) rec {
	has := recFieldsOf(kind)
	var lens [6]int
	left := n
	for f := range lens {
		if has[f] {
			lens[f], left = 1, left-1
		}
	}
	for f := 0; left > 0; f = (f + 1) % len(lens) {
		if has[f] && lens[f] < recFieldCaps[f] {
			lens[f]++
			left--
		}
	}
	val := func(n int) uint64 {
		if n == 1 {
			return 0
		}
		return 1 << (7 * (n - 1))
	}
	r := rec{kind: kind, name: uint32((val(lens[0]) | uint64(kind)) >> 2)}
	if has[1] {
		r.core = l.enc.core + uint32(unzigzag(val(lens[1])))
	}
	if has[2] {
		r.row = l.enc.row + uint32(unzigzag(val(lens[2])))
	}
	if has[3] {
		r.holder = uint32(val(lens[3]))
	}
	r.dur = time.Duration(val(lens[5]))
	r.start = l.enc.end + time.Duration(unzigzag(val(lens[4]))) - r.dur
	return r
}

// TestPackedRoundTrip appends adversarial records of every kind to a
// packed log and reads them back between appends against the plain
// records, through a view that reads every kind and one that reads one
// kind: zero and negative durations, ends off any clock, times near
// ±MaxInt64, fields near 2^32 alternating so that deltas are large,
// and records that exactly fill a chunk. Every chunk but the last is
// filled to within one record.
func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := []time.Duration{0, 1, -1, 7, -7, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64,
		math.MaxInt64 - 1, math.MinInt64 + 1, time.Millisecond}
	fields := []uint32{0, 1, 2, 1<<31 - 1, 1 << 31, math.MaxUint32, math.MaxUint32 - 1, 1 << 28}
	l := &eventLog{}
	var want []rec
	var every view[rec]
	var ofKind [numKinds]view[rec]
	check := func(when string) {
		t.Helper()
		if got := every.all(l, len(want), func(r rec) (rec, bool) { return r, true }); !slices.Equal(got, want) {
			t.Fatalf("%s: %d records read back differ from %d appended", when, len(got), len(want))
		}
		kind := uint8(rng.Intn(numKinds))
		var wantKind []rec
		for _, r := range want {
			if r.kind == kind {
				wantKind = append(wantKind, r)
			}
		}
		got := ofKind[kind].all(l, l.n[kind], func(r rec) (rec, bool) { return r, r.kind == kind })
		if !slices.Equal(got, wantKind) {
			t.Fatalf("%s: %d records of kind %d read back differ from %d appended", when, len(got), kind, len(wantKind))
		}
	}
	push := func(r rec) {
		has := recFieldsOf(r.kind)
		if !has[1] {
			r.core = 0
		}
		if !has[2] {
			r.row = 0
		}
		if !has[3] {
			r.holder = 0
		}
		l.push(r)
		want = append(want, r)
	}
	exact := 0
	for i := 0; len(l.chunks) < 6; i++ {
		kind := uint8(rng.Intn(numKinds))
		switch {
		case i%3 == 0:
			// Alternate extremes so every delta is large.
			f := fields[i%len(fields)] ^ uint32(i&1)*math.MaxUint32
			push(rec{kind: kind, name: fields[rng.Intn(len(fields))], core: f, row: ^f,
				holder: fields[rng.Intn(len(fields))], start: times[rng.Intn(len(times))], dur: times[rng.Intn(len(times))]})
		case i%7 == 0:
			// At the clock: a short wait or slice that ends now.
			dur := time.Duration(rng.Intn(1000))
			push(rec{kind: kind, name: uint32(rng.Intn(40)), core: uint32(rng.Intn(4)), row: uint32(rng.Intn(4)),
				holder: uint32(rng.Intn(9)), start: l.enc.end - dur, dur: dur})
		default:
			// Fill each chunk exactly once its room fits one record.
			min, max := recSizes(kind)
			room := chunkBytes
			if len(l.chunks) > 0 {
				room -= len(l.chunks[len(l.chunks)-1])
			}
			switch {
			case room > max:
				push(recOfSize(l, kind, min+rng.Intn(max-min+1)))
			case room < min:
				push(recOfSize(l, kind, min)) // starts the next chunk
			default:
				push(recOfSize(l, kind, room))
				if got := len(l.chunks[len(l.chunks)-1]); got != chunkBytes {
					t.Fatalf("kind %d: a %d-byte record left the chunk at %d bytes", kind, room, got)
				}
				exact++
			}
		}
		if rng.Intn(500) == 0 {
			check(fmt.Sprintf("after %d records", len(want)))
		}
	}
	check("at the end")
	if exact < 3 {
		t.Fatalf("%d chunks filled exactly, want at least 3", exact)
	}
	for i, c := range l.chunks[:len(l.chunks)-1] {
		if len(c) > chunkBytes || len(c) <= chunkBytes-maxRecBytes || cap(c) != chunkBytes {
			t.Fatalf("chunk %d holds %d of %d bytes", i, len(c), cap(c))
		}
	}
}

// TestCapBoundsTables checks what a recorder at its cap keeps: span and
// site tables within MaxEvents rows, which 10k more spans, waits,
// crossings, marks and core slices over new names do not grow.
func TestCapBoundsTables(t *testing.T) {
	const max = 3*spanChunkLen + 5
	clock := new(time.Duration)
	rec := New(Config{Clock: func() time.Duration { return *clock }, MaxEvents: max})
	record := func(i int) {
		*clock++
		name := fmt.Sprint(i)
		sp := rec.StartSpan(1+i%4, "t"+name, "op")
		rec.Wait(1+i%4, "lock", "m"+name, "h"+name, 1+(i+1)%4, *clock, 1)
		rec.Wait(1+i%4, "runq", "cpu", "", 0, *clock, 1)
		sp.Enter(LayerClient).Exit()
		rec.Core(i%8, *clock, 1, "a"+name, "user")
		rec.Mark("t"+name, "brownout")
		sp.End(0, nil)
	}
	i := 0
	for ; rec.Dropped() == 0; i++ {
		record(i)
	}
	spans, sites, accts := rec.spans.n, len(rec.sites.rows), len(rec.accts.rows)
	if spans > max || sites > max || accts > max {
		t.Fatalf("at the cap: %d span rows, %d sites, %d accounts; want each <= %d", spans, sites, accts, max)
	}
	for end := i + 10_000; i < end; i++ {
		record(i)
	}
	if rec.spans.n != spans || len(rec.sites.rows) != sites || len(rec.accts.rows) != accts {
		t.Fatalf("after the cap: %d/%d/%d span rows/sites/accounts, want %d/%d/%d",
			rec.spans.n, len(rec.sites.rows), len(rec.accts.rows), spans, sites, accts)
	}
	if rec.kept != max || len(rec.Slices())+len(rec.Waits())+len(rec.CoreEvents()) != max {
		t.Fatalf("kept %d records, want %d", rec.kept, max)
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
// but log chunks and the chunk index.
func TestRecordingAllocs(t *testing.T) {
	const n = 50_000
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
	chunks := func() int { return len(rec.waits.chunks) + len(rec.slices.chunks) }
	record()
	for run := 0; run < 3; run++ {
		var before, after runtime.MemStats
		c := chunks()
		runtime.ReadMemStats(&before)
		record()
		runtime.ReadMemStats(&after)
		added := chunks() - c
		// Each log's chunk index grows at most once per run.
		if allocs := after.Mallocs - before.Mallocs; allocs > uint64(added+3) {
			t.Errorf("%d allocs per %d events of each kind adding %d chunks", allocs, n, added)
		}
		if got, held := after.TotalAlloc-before.TotalAlloc, uint64(added*chunkBytes); got > held+held/8 {
			t.Errorf("adding %d bytes of chunks allocated %d bytes", held, got)
		}
	}
	if rec.Waits()[len(rec.Waits())-1].HolderTenant != rec.intern("pool1") {
		t.Error("holder tenant not resolved from the holder's span")
	}
}
