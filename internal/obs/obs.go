// Package obs is the cross-layer observability layer of the testbed:
// request-scoped spans recording per-layer enter/exit in virtual time,
// per-core execution slices, and a per-tenant metrics registry, all
// exportable as a Chrome/Perfetto trace and as JSON/CSV metrics (see
// OBSERVABILITY.md).
//
// Two properties shape the design:
//
//   - Zero overhead when disabled. The recorder is carried as a
//     possibly-nil pointer (a nil *Recorder, a nil *Span) and every
//     method is nil-safe, so instrumented code paths simply pass a nil
//     through. No engine events are scheduled and no virtual time is
//     consumed: a run without a recorder is event-for-event identical
//     to an uninstrumented build, and a run WITH a recorder (sampling
//     off) produces identical virtual-time results — the recorder only
//     reads the clock.
//
//   - Determinism. Span and slice identifiers are assigned
//     sequentially in engine order, timestamps are virtual, and the
//     exporters sort every map, so the same schedule produces
//     byte-identical artifacts across runs.
//
// Spans are created at the filesystem facade boundary (see
// vfsapi.Traced) and travel by value inside vfsapi.Ctx through every
// layer; each layer brackets its work with Span.Enter/Scope.Exit.
// Background activity that acts on behalf of a tenant — the kernel
// writeback flusher, the user-level client flusher — opens its own
// span tagged with the *originating* tenant, so core stealing and
// lock waits can be attributed to the pool whose dirty data caused
// them even though the CPU time lands on the kernel's account.
//
// The package deliberately depends only on the standard library and
// internal/metrics, so every simulator layer (sim, cpu, vfsapi, kern,
// cluster, ...) can import it without cycles; the virtual clock is
// injected as a closure instead of importing the engine.
package obs

import (
	"fmt"
	"sort"
	"time"
	"unsafe"
)

// Layer names one level of the client I/O stack crossed by a span.
// The vocabulary is documented in OBSERVABILITY.md.
type Layer string

// Layer vocabulary, ordered roughly top (application-facing) to
// bottom (storage cluster).
const (
	// LayerRequest is the root slice of a request span, emitted by the
	// vfsapi.Traced facade when the operation completes.
	LayerRequest Layer = "request"
	// LayerIPC is the Danaus shared-memory transport (ipc.Transport).
	LayerIPC Layer = "ipc"
	// LayerFUSE is a FUSE crossing (fusefs.Transport).
	LayerFUSE Layer = "fuse"
	// LayerUnion is the union filesystem (unionfs.Union).
	LayerUnion Layer = "union"
	// LayerClient is the user-level Ceph client (cephclient.Client).
	LayerClient Layer = "client"
	// LayerSyscall is the kernel VFS entry (kern.Syscalls).
	LayerSyscall Layer = "syscall"
	// LayerWriteback is a flusher pass (cacherun.Writeback.Flush); its
	// span carries the originating tenant.
	LayerWriteback Layer = "writeback"
	// LayerMDS is a metadata round trip to the MDS.
	LayerMDS Layer = "mds"
	// LayerOSD is object service at an OSD (media + op cost).
	LayerOSD Layer = "osd"
	// LayerNet is time on the network fabric (NIC links, propagation).
	LayerNet Layer = "net"
	// LayerEvent is a zero-duration point marker (Recorder.Mark):
	// circuit-breaker state transitions, brownout flips. The blame
	// engine ignores it (it only decomposes LayerRequest slices).
	LayerEvent Layer = "event"
)

// Config configures a Recorder.
type Config struct {
	// Clock reads the virtual time (typically sim.Engine.Now).
	// Required.
	Clock func() time.Duration
	// SampleInterval is the virtual-time period of the core-utilization
	// and cache-occupancy series sampler (core.Testbed.AttachObserver
	// schedules it). Zero or negative disables sampling — and with it
	// the only engine events observability ever adds.
	SampleInterval time.Duration
	// MaxEvents caps the retained trace events (span slices, waits
	// and core slices). Beyond the cap events are counted as dropped instead of
	// retained, keeping memory bounded on long runs. Zero means the
	// default of 4M events.
	MaxEvents int
}

// Recorder accumulates the trace events and metrics of one testbed
// run. A nil *Recorder is the disabled state: every method no-ops.
type Recorder struct {
	cfg      Config
	nextSpan uint64
	// The two logs keep packed, pointer-free records and build the
	// wide events only when read (Slices from slices; Waits and
	// CoreEvents from waits, which holds the waits, the core slices and
	// the CPU slices that are both). A record names its span by a row
	// of spans and its names by a row of sites or accts; a row is made
	// only when a kept record first needs it, so no table outgrows
	// MaxEvents rows.
	slices    eventLog
	waits     eventLog
	sliceView view[SliceEvent]
	waitView  view[WaitEvent]
	coreView  view[CoreEvent]
	spans     spanTable
	sites     tupleTable // wait (kind, resource, holder)
	accts     tupleTable // core slice (account, kind)
	kept      int        // events kept: a CPU slice with its run wait is two
	dropped   uint64

	// procSpan binds each simulated process to the span it is currently
	// serving, indexed by process id (engine ids are small and dense), so
	// passively observed waits (engine wait observer) can be attributed
	// to a request. Exactly one goroutine runs at any instant in the
	// simulation, so plain access is safe.
	procSpan []*Span
	// unattributed counts waits observed on processes with no bound
	// span (warmup traffic, background threads outside their lazy
	// writeback spans).
	unattributed uint64
	// open tracks spans started and not yet ended — the span-leak
	// checker's ledger.
	open map[uint64]*Span
	// free holds ended spans for StartSpan to reuse.
	free []*Span

	// Tenant/op/layer/account names are interned to small ids so the
	// (potentially millions of) retained events carry no pointers: the
	// garbage collector never scans the event buffers, which keeps
	// recording overhead flat as they grow.
	syms   []string
	symIdx map[string]Sym
	// symCache answers repeated names in front of symIdx (see intern).
	symCache [symCacheLen]symSlot
	// emptySym is the id of "", the holder tenant of a wait whose
	// holder serves no span, once haveEmpty is set.
	emptySym  Sym
	haveEmpty bool
	// runSite is the sites row of a slice's run wait ("run", "cpu",
	// ""), once haveRunSite is set.
	runSite     uint32
	haveRunSite bool

	reg        *Registry
	finalizers []func(*Registry)
	finalized  bool

	// opSubs receive one OpEvent per completed root request span (see
	// OpDone), in subscription order: the trace recorder
	// (internal/trace) and the live telemetry monitor (internal/telemetry
	// via core.AttachMonitor) each add one. waitHook, when set, receives
	// the cross-tenant wait attributions, the only ones the monitor
	// keeps. Both are pure observations: no engine events, no clock
	// reads beyond what OpDone and Wait already do.
	opSubs   []func(OpEvent)
	waitHook func(victim, aggressor string, start, dur time.Duration)
}

// Sym is an interned string id, resolvable with Recorder.Str. Ids are
// assigned sequentially in first-use (engine) order, so they are
// deterministic across identical runs.
type Sym uint32

// SliceEvent is one recorded layer crossing of a span: the span spent
// [Start, Start+Dur) inside Layer. String fields are interned
// (Recorder.Str resolves them) to keep the event buffers pointer-free.
type SliceEvent struct {
	Span   uint64
	Proc   int32
	Tenant Sym
	Op     Sym
	Layer  Sym
	Start  time.Duration
	Dur    time.Duration
	Err    bool
}

// WaitEvent is one completed wait interval observed while a bound span
// was being served: the span's process spent [Start, Start+Dur) blocked
// on (or, for Kind "run", executing on) Resource. Holder identifies the
// party occupying the resource when the wait began ("" when not
// applicable). String fields are interned (Recorder.Str resolves them).
type WaitEvent struct {
	Span     uint64
	Proc     int32
	Tenant   Sym
	Op       Sym
	Kind     Sym
	Resource Sym
	Holder   Sym
	// HolderTenant is the tenant of the span the holder process was
	// serving when the wait completed ("" when the holder is not a
	// process or was not serving a traced request). The interference
	// matrix prefers it over Holder: background kernel threads dissolve
	// into the tenant on whose behalf they worked.
	HolderTenant Sym
	Start        time.Duration
	Dur          time.Duration
}

// CoreEvent is one scheduler quantum (or sub-quantum slice) executed
// on a simulated core, attributed to the account that consumed it.
// Account and Kind are interned (Recorder.Str).
type CoreEvent struct {
	Core    int32
	Start   time.Duration
	Dur     time.Duration
	Account Sym
	Kind    Sym // "user" or "kernel"
}

// OpEvent describes one completed VFS operation as seen at the
// facade boundary (vfsapi.Traced): who issued it, what it did, when it
// was issued in virtual time, and how long it took. It carries enough
// to reissue the operation byte-identically (path, flags, offset,
// length), which is what internal/trace records and replays.
type OpEvent struct {
	Proc    int32
	Tenant  string
	Op      string
	Path    string
	Path2   string // rename destination, "" otherwise
	Flags   int    // open flags bitmask, 0 otherwise
	Offset  int64
	Len     int64         // requested length (reissue parameter)
	Bytes   int64         // bytes actually served (short reads < Len)
	Issue   time.Duration // span start (virtual time the op was issued)
	Latency time.Duration
	Err     bool
}

// SubscribeOps adds fn to the op stream: it fires once per root
// request span as it completes, in engine order. With no subscriber
// the capture path costs a single length check per op and reads no
// clock, preserving the zero-overhead-when-disabled contract. Nil-safe.
func (r *Recorder) SubscribeOps(fn func(OpEvent)) {
	if r == nil {
		return
	}
	r.opSubs = append(r.opSubs, fn)
}

// SetWaitHook installs the live telemetry wait feed: fn receives each
// cross-tenant wait attribution (victim charged, aggressor blamed) as it
// is observed — a wait whose victim and holder serve spans of two
// different, non-empty tenants. A wait with no holder span, or one of
// the victim's own tenant, never reaches fn. Nil-safe.
func (r *Recorder) SetWaitHook(fn func(victim, aggressor string, start, dur time.Duration)) {
	if r == nil {
		return
	}
	r.waitHook = fn
}

// OpDone feeds one completed operation to every op subscriber. The
// traced facade calls it alongside Span.End with the reissue parameters
// the span itself does not carry (path, flags, offset, length) plus the
// bytes actually served. No-op when the recorder or the span is nil or
// nothing subscribed — nested facade crossings pass a nil span, so only
// the root of a request is captured.
func (r *Recorder) OpDone(sp *Span, path, path2 string, flags int, off, n, served int64, err error) {
	if r == nil || sp == nil || len(r.opSubs) == 0 {
		return
	}
	e := OpEvent{
		Proc: sp.proc, Tenant: sp.tenant, Op: sp.op,
		Path: path, Path2: path2, Flags: flags, Offset: off, Len: n, Bytes: served,
		Issue: sp.start, Latency: r.cfg.Clock() - sp.start, Err: err != nil,
	}
	for _, fn := range r.opSubs {
		fn(e)
	}
}

// New creates an enabled recorder. cfg.Clock must be set.
func New(cfg Config) *Recorder {
	if cfg.Clock == nil {
		panic("obs: Config.Clock is required")
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 4 << 20
	}
	return &Recorder{
		cfg: cfg, reg: NewRegistry(), symIdx: map[string]Sym{},
		open:  map[uint64]*Span{},
		sites: tupleTable{width: 3, idx: map[[3]Sym]uint32{}},
		accts: tupleTable{width: 2, idx: map[[3]Sym]uint32{}},
	}
}

// spanRow is one row of the span table: what a record needs of the
// span it belongs to.
type spanRow struct {
	id     uint64
	proc   int32
	tenant Sym
	op     Sym
}

// errBit marks, in a slice record's layer, a request that failed.
const errBit Sym = 1 << 31

// A span slice's name is its layer, with errBit set when Err.
func (r *Recorder) sliceEvent(s rec) (SliceEvent, bool) {
	sp := r.spans.at(int(s.row))
	layer := Sym(s.name)
	return SliceEvent{
		Span: sp.id, Proc: sp.proc, Tenant: sp.tenant, Op: sp.op,
		Layer: layer &^ errBit, Start: s.start, Dur: s.dur, Err: layer&errBit != 0,
	}, true
}

// A wait's name is its sites row. A CPU slice is also the run wait of
// its span, whose site is runSite and whose holder tenant is "".
func (r *Recorder) waitEvent(w rec) (WaitEvent, bool) {
	site, holder := w.name, Sym(w.holder)
	switch w.kind {
	case kindWait:
	case kindSlice:
		site, holder = r.runSite, r.emptySym
	default:
		return WaitEvent{}, false
	}
	sp := r.spans.at(int(w.row))
	names := &r.sites.rows[site]
	return WaitEvent{
		Span: sp.id, Proc: sp.proc, Tenant: sp.tenant, Op: sp.op,
		Kind: names[0], Resource: names[1], Holder: names[2], HolderTenant: holder,
		Start: w.start, Dur: w.dur,
	}, true
}

// A core slice's name is its accts row; a CPU slice is also one.
func (r *Recorder) coreEvent(c rec) (CoreEvent, bool) {
	if c.kind == kindWait {
		return CoreEvent{}, false
	}
	a := &r.accts.rows[c.name]
	return CoreEvent{Core: int32(c.core), Start: c.start, Dur: c.dur, Account: a[0], Kind: a[1]}, true
}

// rowOf returns s's span-table row, making it on the first call.
func (r *Recorder) rowOf(s *Span) uint32 {
	if s.row < 0 {
		s.row = int32(r.spans.n)
		r.spans.push(spanRow{id: s.id, proc: s.proc, tenant: s.tenantSym, op: s.opSym})
	}
	return uint32(s.row)
}

// pushSlice keeps one slice record of row.
func (r *Recorder) pushSlice(row uint32, l Layer, start, dur time.Duration, err bool) {
	layer := r.intern(string(l))
	if err {
		layer |= errBit
	}
	r.slices.push(rec{kind: kindCross, row: row, name: uint32(layer), start: start, dur: dur})
}

// Recorder.symCache has symCacheLen slots. The per-event names of a
// testbed run number under a hundred.
const (
	symCacheBits = 8
	symCacheLen  = 1 << symCacheBits
)

// symSlot is one entry of the intern cache. ok tells a filled slot
// from an empty one, whose zero s would otherwise answer for "".
type symSlot struct {
	s  string
	id Sym
	ok bool
}

// symSlotOf picks s's cache slot from the address of its bytes. The
// names on the per-event path (wait kinds, resources, holders,
// accounts, layers) are constants or fields set once, so each arrives
// at the same address every time.
func symSlotOf(s string) int {
	return slotOf(addr(s))
}

// slotOf spreads an address (or a sum of them) over symCacheLen slots.
func slotOf(p uint64) int {
	return int((p * 0x9e3779b97f4a7c15) >> (64 - symCacheBits))
}

// addr is the address of s's bytes.
func addr(s string) uint64 {
	return uint64(uintptr(unsafe.Pointer(unsafe.StringData(s))))
}

// sameStr reports whether a and b are the same bytes at the same
// address.
func sameStr(a, b string) bool {
	return unsafe.StringData(a) == unsafe.StringData(b) && len(a) == len(b)
}

// tupleTable numbers tuples of width names, in first-use order: the
// (kind, resource, holder) site of a wait, or the (account, kind) of a
// core slice, whose unused third name is "".
type tupleTable struct {
	width int
	rows  [][3]Sym
	idx   map[[3]Sym]uint32
	// cache answers a tuple passed again with each name at the same
	// address, as symCache does for single names.
	cache [symCacheLen]tupleSlot
}

type tupleSlot struct {
	names [3]string
	id    uint32
	ok    bool
}

// tuple returns the row of names in t, interning each name and adding
// the row on first use. A cache hit, keyed and checked like intern's
// by the names' addresses, skips the width intern calls and the map;
// a miss interns the names in order, so symbol and row ids stay in
// first-use order.
func (r *Recorder) tuple(t *tupleTable, names [3]string) uint32 {
	slot := &t.cache[slotOf(addr(names[0])+3*addr(names[1])+5*addr(names[2]))]
	if slot.ok && sameStr(slot.names[0], names[0]) && sameStr(slot.names[1], names[1]) &&
		sameStr(slot.names[2], names[2]) {
		return slot.id
	}
	var key [3]Sym
	for i := 0; i < t.width; i++ {
		key[i] = r.intern(names[i])
	}
	id, ok := t.idx[key]
	if !ok {
		id = uint32(len(t.rows))
		t.rows = append(t.rows, key)
		t.idx[key] = id
	}
	*slot = tupleSlot{names: names, id: id, ok: true}
	return id
}

// intern maps a string to its stable id, assigning one on first use.
// A direct-mapped cache in front of symIdx answers a name passed again
// at the same address by comparing address and length, without hashing
// or reading its bytes; the slot keeps the string alive, so no other
// string can reuse the address meanwhile. Anything else (a first use,
// an equal name at another address, a slot taken by another name)
// falls through to the map and refills the slot, so ids are the map's
// and stay in first-use order.
func (r *Recorder) intern(s string) Sym {
	slot := &r.symCache[symSlotOf(s)]
	if slot.ok && sameStr(slot.s, s) {
		return slot.id
	}
	id, ok := r.symIdx[s]
	if !ok {
		id = Sym(len(r.syms))
		r.syms = append(r.syms, s)
		r.symIdx[s] = id
	}
	*slot = symSlot{s: s, id: id, ok: true}
	return id
}

// spanOf returns the span bound to proc, or nil.
func (r *Recorder) spanOf(proc int) *Span {
	if uint(proc) < uint(len(r.procSpan)) {
		return r.procSpan[proc]
	}
	return nil
}

// Str resolves an interned id back to its string. Nil-safe.
func (r *Recorder) Str(id Sym) string {
	if r == nil || int(id) >= len(r.syms) {
		return ""
	}
	return r.syms[id]
}

// Now reads the recorder's virtual clock (zero when disabled).
func (r *Recorder) Now() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.Clock()
}

// SampleInterval returns the configured sampler period.
func (r *Recorder) SampleInterval() time.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SampleInterval
}

// Dropped returns how many events were discarded over MaxEvents.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped
}

// Slices returns the recorded span slices in recording order
// (exporter access). The slice is shared by every call until the next
// recorded event; callers must not modify it.
func (r *Recorder) Slices() []SliceEvent {
	if r == nil {
		return nil
	}
	return r.sliceView.all(&r.slices, r.slices.n[kindCross], r.sliceEvent)
}

// CoreEvents returns the recorded per-core slices in recording order
// (exporter access; shared like Slices).
func (r *Recorder) CoreEvents() []CoreEvent {
	if r == nil {
		return nil
	}
	return r.coreView.all(&r.waits, r.waits.n[kindCore]+r.waits.n[kindSlice], r.coreEvent)
}

// Waits returns the recorded wait events in recording order
// (blame-engine access; shared like Slices).
func (r *Recorder) Waits() []WaitEvent {
	if r == nil {
		return nil
	}
	return r.waitView.all(&r.waits, r.waits.n[kindWait]+r.waits.n[kindSlice], r.waitEvent)
}

// UnattributedWaits returns how many observed waits had no bound span.
func (r *Recorder) UnattributedWaits() uint64 {
	if r == nil {
		return 0
	}
	return r.unattributed
}

// Registry returns the metrics registry, or nil when disabled.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// room reports whether one more record fits under MaxEvents, and
// counts it kept if so (the caller then pushes it) or dropped if not.
func (r *Recorder) room() bool {
	if r.kept >= r.cfg.MaxEvents {
		r.dropped++
		return false
	}
	r.kept++
	return true
}

// StartSpan opens a request-scoped span for tenant performing op on
// simulated process proc, an engine process id (0 for none; never
// negative). It reuses a span that has ended, with every field set
// afresh. Returns nil (a no-op span) when the recorder is disabled.
func (r *Recorder) StartSpan(proc int, tenant, op string) *Span {
	if r == nil {
		return nil
	}
	var s *Span
	if n := len(r.free); n > 0 {
		s, r.free = r.free[n-1], r.free[:n-1]
	} else {
		s = new(Span)
	}
	r.nextSpan++
	*s = Span{
		rec: r, id: r.nextSpan, proc: int32(proc),
		tenant: tenant, op: op,
		tenantSym: r.intern(tenant), opSym: r.intern(op),
		start: r.cfg.Clock(), row: -1,
	}
	if proc >= len(r.procSpan) {
		r.procSpan = append(r.procSpan, make([]*Span, proc+1-len(r.procSpan))...)
	}
	r.procSpan[proc] = s
	r.open[s.id] = s
	return s
}

// Mark records a zero-duration point event (layer "event") tagged with
// tenant and name — breaker transitions, brownout flips. Unlike
// StartSpan it never binds a process, so a mark emitted mid-request
// cannot steal the wait attribution of the active request span.
// Nil-safe.
func (r *Recorder) Mark(tenant, name string) {
	if r == nil || !r.room() {
		return
	}
	r.nextSpan++
	row := uint32(r.spans.n)
	r.spans.push(spanRow{id: r.nextSpan, tenant: r.intern(tenant), op: r.intern(name)})
	r.pushSlice(row, LayerEvent, r.cfg.Clock(), 0, false)
}

// Wait attributes one passively observed wait interval to the span
// currently bound to proc. Waits on processes with no bound span
// (warmup traffic, background threads between writeback passes) are
// counted, not stored. When holderID names a process that is itself
// serving a span, the holder is additionally resolved to that span's
// tenant — so a kernel flusher holding i_mutex mid-writeback blames
// the tenant whose dirty data it was flushing. The recorder is the
// engine's observer (sim.Observer), so the engine calls it directly.
// Nil-safe.
func (r *Recorder) Wait(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
	if r == nil {
		return
	}
	s := r.spanOf(proc)
	if s == nil {
		r.unattributed++
		return
	}
	var hs *Span
	if holderID != 0 {
		hs = r.spanOf(holderID)
	}
	// Telemetry sees every cross-tenant wait, even once the bounded
	// event buffer is full — the monitor aggregates online and stores
	// O(1).
	if hs != nil && r.waitHook != nil && s.tenant != "" && hs.tenant != "" && hs.tenant != s.tenant {
		r.waitHook(s.tenant, hs.tenant, start, dur)
	}
	if !r.room() {
		return
	}
	w := rec{
		kind: kindWait, row: r.rowOf(s), name: r.tuple(&r.sites, [3]string{kind, resource, holder}),
		start: start, dur: dur,
	}
	// The holder span's tenant was interned when the span started; ""
	// is interned here, after the names above, to keep first-use order.
	if hs != nil {
		w.holder = uint32(hs.tenantSym)
	} else {
		w.holder = uint32(r.empty())
	}
	r.waits.push(w)
}

// empty returns the id of "", interning it on the first call.
func (r *Recorder) empty() Sym {
	if !r.haveEmpty {
		r.emptySym, r.haveEmpty = r.intern(""), true
	}
	return r.emptySym
}

// Slice records one CPU slice that process proc ran on core, charged
// to account as kind: the core event Core keeps and, when proc serves
// a span, the "run" wait on "cpu" that Wait would keep for it, in that
// order, with the same room checks and first-use symbol order. Both go
// in one record, which counts as two kept events; a slice whose run
// wait is not kept is a core record. A run wait has no holder, so the
// wait hook never sees it. The engine reports each slice once, here
// (sim.Observer). Nil-safe.
func (r *Recorder) Slice(proc, core int, account, kind string, start, dur time.Duration) {
	if r == nil {
		return
	}
	keep := r.room()
	var s *Span
	if dur > 0 {
		if s = r.spanOf(proc); s == nil {
			r.unattributed++
		} else if !r.room() {
			s = nil
		}
	}
	if !keep {
		return
	}
	c := rec{kind: kindCore, core: uint32(core), name: r.tuple(&r.accts, [3]string{account, kind}), start: start, dur: dur}
	if s != nil {
		c.kind, c.row = kindSlice, r.rowOf(s)
		if !r.haveRunSite {
			r.runSite, r.haveRunSite = r.tuple(&r.sites, [3]string{"run", "cpu", ""}), true
			r.empty()
		}
	}
	r.waits.push(c)
}

// LeakedSpans describes every span opened but never ended, sorted by
// span id. The test suite asserts this is empty at engine drain: a
// leaked span means an instrumentation point lost an End on some path.
// Nil-safe.
func (r *Recorder) LeakedSpans() []string {
	if r == nil || len(r.open) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(r.open))
	for id := range r.open {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		s := r.open[id]
		out = append(out, fmt.Sprintf("span %d proc %d tenant %q op %q started %v",
			s.id, s.proc, s.tenant, s.op, s.start))
	}
	return out
}

// Core records one executed core slice. Nil-safe.
func (r *Recorder) Core(core int, start, dur time.Duration, account, kind string) {
	if r == nil || !r.room() {
		return
	}
	r.waits.push(rec{
		kind: kindCore, core: uint32(core), name: r.tuple(&r.accts, [3]string{account, kind}),
		start: start, dur: dur,
	})
}

// Sample appends one point to the named per-tenant time series
// (tenant "host" is the whole-machine pseudo-tenant). Nil-safe.
func (r *Recorder) Sample(tenant, series string, t time.Duration, v float64) {
	if r == nil {
		return
	}
	r.reg.Tenant(tenant).Series(series).Add(t, v)
}

// OnFinalize registers a harvest function run once by Finalize, in
// registration order. Used to fold end-of-run aggregates (lock stats,
// cache stats, fault counters) into the registry. Nil-safe.
func (r *Recorder) OnFinalize(fn func(*Registry)) {
	if r == nil {
		return
	}
	r.finalizers = append(r.finalizers, fn)
}

// Finalize runs the registered harvest functions exactly once (the
// exporters call it). Nil-safe and idempotent.
func (r *Recorder) Finalize() {
	if r == nil || r.finalized {
		return
	}
	r.finalized = true
	for _, fn := range r.finalizers {
		fn(r.reg)
	}
}

// Span is one request (or one background writeback pass) traveling
// through the stack. A nil *Span is the disabled state: every method
// no-ops, so instrumentation points never test for enablement.
type Span struct {
	rec  *Recorder
	id   uint64
	proc int32
	// row is the span's span-table row, -1 until a kept record first
	// names the span.
	row       int32
	tenant    string
	op        string
	tenantSym Sym
	opSym     Sym
	start     time.Duration
	// tm is the tenant's metrics, nil until the span's first lock wait
	// or its end looks them up.
	tm *TenantMetrics
}

// metrics returns the span's tenant metrics, creating them on first use
// as Registry.Tenant does.
func (s *Span) metrics() *TenantMetrics {
	if s.tm == nil {
		s.tm = s.rec.reg.Tenant(s.tenant)
	}
	return s.tm
}

// Tenant returns the originating tenant tag ("" on a nil span).
func (s *Span) Tenant() string {
	if s == nil {
		return ""
	}
	return s.tenant
}

// Enter brackets entry into a layer; the returned Scope's Exit
// records the slice. Usable as `defer sp.Enter(l).Exit()`. Nil-safe:
// a nil span returns a zero Scope whose Exit no-ops.
func (s *Span) Enter(l Layer) Scope {
	if s == nil {
		return Scope{}
	}
	return Scope{span: s, layer: l, start: s.rec.cfg.Clock()}
}

// End completes the span: it emits the root LayerRequest slice and
// folds the operation into the per-tenant registry (latency
// histogram, op/byte/error counters). The span then goes back to its
// recorder for StartSpan to reuse, so nothing may use it after End:
// not a Scope it entered, not a copy of the pointer. Nil-safe.
func (s *Span) End(bytes int64, err error) {
	if s == nil {
		return
	}
	r := s.rec
	now := r.cfg.Clock()
	if r.room() {
		r.pushSlice(r.rowOf(s), LayerRequest, s.start, now-s.start, err != nil)
	}
	if r.spanOf(int(s.proc)) == s {
		r.procSpan[s.proc] = nil
	}
	delete(r.open, s.id)
	s.metrics().Op(s.op).record(now-s.start, bytes, err)
	*s = Span{}
	r.free = append(r.free, s)
}

// LockWait attributes a lock-acquisition wait observed while serving
// this span to the span's tenant. Zero waits still count an
// acquisition. Nil-safe.
func (s *Span) LockWait(lock string, wait time.Duration) {
	if s == nil {
		return
	}
	s.metrics().Lock(lock).addWait(wait)
}

// Scope is an open layer crossing of a span.
type Scope struct {
	span  *Span
	layer Layer
	start time.Duration
}

// Exit closes the crossing and records its slice. No-op on the zero
// Scope.
func (sc Scope) Exit() {
	s := sc.span
	if s == nil {
		return
	}
	if !s.rec.room() {
		return
	}
	s.rec.pushSlice(s.rec.rowOf(s), sc.layer, sc.start, s.rec.cfg.Clock()-sc.start, false)
}
