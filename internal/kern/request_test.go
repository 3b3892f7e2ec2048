package kern

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// straightLine is the oracle for TestKernRunMatchesStraightLine: Read,
// Write and Close on a page-cache handle as they were before the request
// run — the blocking pagedHandle method with the page-cache helpers as
// they were, and, through Syscalls, the entry chain before it and the
// exit mode switch after it. The process resumes after every charge and
// every lock. cover counts the paths the oracle took, so a test can
// check its scenarios reached each hand-back of the run.
type straightLine struct {
	cover map[string]int
}

func (o *straightLine) syscall(s *Syscalls, ctx vfsapi.Ctx, op func() (int64, error)) (int64, error) {
	sc := ctx.Span.Enter(obs.LayerSyscall)
	ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, s.kern.params.VFSOpCost))
	n, err := op()
	ctx.T.ModeSwitch(ctx.P)
	sc.Exit()
	return n, err
}

// lockSpan acquires mu, attributing any wait to the tenant of the
// request being served (ctx.Span) under the given lock name: the
// historical form of a LockedChain with nothing to chain. Without an
// active span it is exactly mu.Lock.
func lockSpan(ctx vfsapi.Ctx, mu *sim.Mutex, name string) {
	if ctx.Span == nil {
		mu.Lock(ctx.P)
		return
	}
	start := ctx.P.Now()
	mu.Lock(ctx.P)
	ctx.Span.LockWait(name, ctx.P.Now()-start)
}

func (o *straightLine) cacheInsert(m *Mount, ctx vfsapi.Ctx, f *fileState, off, n int64) {
	k := m.kern
	lockSpan(ctx, k.lruLock, "lru_lock")
	if m.cache.Stale(f) {
		o.cover["insert into a stale ledger entry"]++
		k.lruLock.Unlock(ctx.P)
		return
	}
	added := m.cache.Insert(f, off, n)
	if hold := time.Duration(k.params.Pages(added)) * k.params.LRULockHoldPerPage; hold > 0 {
		ctx.T.Exec(ctx.P, cpu.Kernel, hold)
	}
	k.lruLock.Unlock(ctx.P)
	if m.cache.Over() {
		o.cover["evict"]++
		var freed int64
		lockSpan(ctx, k.lruLock, "lru_lock")
		freed = m.cache.Evict()
		k.lruLock.Unlock(ctx.P)
		if freed > 0 {
			ctx.T.Exec(ctx.P, cpu.Kernel, time.Duration(k.params.Pages(freed))*k.params.LRULockHoldPerPage)
		}
	}
}

func (o *straightLine) markDirty(m *Mount, ctx vfsapi.Ctx, f *fileState, off, n int64) {
	k := m.kern
	lockSpan(ctx, k.writebackLock, "wb_lock")
	ctx.T.Exec(ctx.P, cpu.Kernel, k.params.WritebackLockHold)
	if m.cache.Stale(f) {
		o.cover["mark a stale ledger entry"]++
		k.writebackLock.Unlock(ctx.P)
		return
	}
	m.cache.MarkDirty(f, off, n, k.eng.Now())
	k.writebackLock.Unlock(ctx.P)
	if m.cache.DirtyBytes >= m.bgThreshold() {
		k.wakeFlushers()
	}
	if over := m.cache.DirtyBytes - m.bgThreshold(); over > 0 && m.flushRate > 0 {
		span := m.maxDirty() - m.bgThreshold()
		if span < 1 {
			span = 1
		}
		ramp := float64(over) / float64(span)
		if ramp > 1 {
			ramp = 1
		}
		pause := time.Duration(float64(n) / m.flushRate * ramp * ramp * float64(time.Second))
		if pause > 200*time.Millisecond {
			pause = 200 * time.Millisecond
		}
		if pause > 0 {
			o.cover["write paced"]++
			start := k.eng.Now()
			m.throttleQ.WaitTimeout(ctx.P, pause)
			ctx.T.Account().AddIOWait(k.eng.Now() - start)
		}
	}
	if m.cache.DirtyBytes >= m.maxDirty() && !k.stopped && !m.crashed {
		o.cover["write at the hard dirty limit"]++
	}
	for m.cache.DirtyBytes >= m.maxDirty() && !k.stopped && !m.crashed {
		start := k.eng.Now()
		m.throttleQ.WaitTimeout(ctx.P, k.params.DirtyThrottleCheck)
		ctx.T.Account().AddIOWait(k.eng.Now() - start)
	}
}

func (o *straightLine) read(h *pagedHandle, ctx vfsapi.Ctx, off, n int64) (int64, error) {
	if err := h.failIfStale(ctx); err != nil {
		o.cover["read on a closed or stale handle"]++
		return 0, err
	}
	if off >= h.f.Size {
		o.cover["read at EOF"]++
		return 0, nil
	}
	if off+n > h.f.Size {
		o.cover["read clamped at EOF"]++
		n = h.f.Size - off
	}
	if n <= 0 {
		return 0, nil
	}
	m := h.m
	params := m.kern.params
	if h.flags.Has(vfsapi.DIRECT) {
		o.cover["read DIRECT"]++
		m.store.ReadData(ctx, h.f.Ino, off, n)
		ctx.T.Exec(ctx.P, cpu.Kernel, params.CopyTime(n))
		return n, nil
	}
	if m.raWindow() == 0 {
		o.cover["read in brownout"]++
	}
	fetchLen := h.ra.Extend(off, n, h.f.Size, m.raWindow())
	missed := false
	for {
		if err := h.failIfStale(ctx); err != nil {
			return 0, err
		}
		g, wait := h.f.Claim(off, fetchLen)
		if wait {
			o.cover["read waits on fetchQ"]++
			missed = true
			m.fetchQ.WaitTimeout(ctx.P, params.DirtyThrottleCheck)
			continue
		}
		if g.Len == 0 {
			break
		}
		o.cover["read miss"]++
		missed = true
		m.store.ReadData(ctx, h.f.Ino, g.Off, g.Len)
		if err := h.failIfStale(ctx); err != nil {
			o.cover["read stale after its fetch"]++
			h.f.Fetching.Remove(g.Off, g.Len)
			m.fetchQ.Broadcast()
			return 0, err
		}
		o.cacheInsert(m, ctx, h.f, g.Off, g.Len)
		h.f.Fetching.Remove(g.Off, g.Len)
		m.fetchQ.Broadcast()
	}
	if !missed {
		o.cover["read hit"]++
	}
	lockSpan(ctx, m.kern.lruLock, "lru_lock")
	m.cache.Touch(h.f)
	m.kern.lruLock.Unlock(ctx.P)
	ctx.T.Exec(ctx.P, cpu.Kernel, params.CopyTime(n))
	return n, nil
}

func (o *straightLine) write(h *pagedHandle, ctx vfsapi.Ctx, off, n int64) (int64, error) {
	if err := h.failIfStale(ctx); err != nil {
		o.cover["write on a closed or stale handle"]++
		return 0, err
	}
	if !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE) {
		o.cover["write on a read-only handle"]++
		return 0, vfsapi.ErrReadOnly
	}
	if n <= 0 {
		return 0, nil
	}
	m := h.m
	params := m.kern.params
	h.wrote = true
	if h.flags.Has(vfsapi.DIRECT) {
		o.cover["write DIRECT"]++
		ctx.T.Exec(ctx.P, cpu.Kernel, params.CopyTime(n))
		m.store.WriteData(ctx, h.f.Ino, off, n)
		if end := off + n; end > h.f.Size {
			h.f.Size = end
			m.store.SetSize(ctx, h.f.Ino, end)
		}
		return n, nil
	}
	h.f.X.Lock(ctx.P)
	ctx.T.Chain(ctx.P, cpu.Charge(cpu.Kernel, params.IMutexHold), cpu.Charge(cpu.Kernel, params.CopyTime(n)))
	o.cacheInsert(m, ctx, h.f, off, n)
	if end := off + n; end > h.f.Size {
		h.f.Size = end
	}
	h.f.X.Unlock(ctx.P)
	o.markDirty(m, ctx, h.f, off, n)
	if err := h.failIfStale(ctx); err != nil {
		o.cover["write stale after its mark"]++
		return 0, err
	}
	o.cover["write"]++
	return n, nil
}

func (o *straightLine) close(h *pagedHandle, ctx vfsapi.Ctx) error {
	if h.closed {
		o.cover["close a closed handle"]++
		return vfsapi.ErrClosed
	}
	if err := h.failIfStale(ctx); err != nil {
		o.cover["close a stale handle"]++
		h.closed = true
		return err
	}
	h.closed = true
	if h.wrote && !h.f.Unlinked {
		o.cover["close pushes the size"]++
		return h.m.store.SetSize(ctx, h.f.Ino, h.f.Size)
	}
	o.cover["close"]++
	return nil
}

type kOpKind uint8

const (
	kRead kOpKind = iota
	kWrite
	kClose  // drops the handle; the next op on the file reopens it
	kClosed // closes the handle and keeps it for one more op
	kUnlink
)

// kOp is one system call of an application: issued after gap, on file
// file, of n bytes at off.
type kOp struct {
	gap    time.Duration
	kind   kOpKind
	file   int
	off, n int64
}

type kApp struct {
	mask     cpu.Mask
	readOnly bool
	direct   bool
	bare     bool // Read, Write and Close go straight to the page-cache handle, not through Syscalls
	keep     bool // a handle a crash left stale is kept, not reopened
	ops      []kOp
}

// kToggle crashes the mount at at and restarts it after back, or, with
// brownout, holds the kernel in brownout from at for back. Over a
// CephStore, osd crashes the OSD serving file 0's first object for back
// instead, and partition cuts that OSD's network, or with client too
// the client's, for back.
type kToggle struct {
	at, back       time.Duration
	brownout       bool
	osd, partition bool
	client         bool
}

type kScenario struct {
	cores                 int
	memLimit, maxDirty    int64
	readDelay, writeDelay time.Duration
	files                 []int64 // provisioned sizes
	apps                  []kApp
	toggles               []kToggle
	shared                bool    // the applications share their handles, as threads of one process do
	ceph                  bool    // the mount's store is a kernel Ceph client of a six-OSD cluster
	degraded              float64 // over a CephStore, the OSD serving file 0's first object is this many times slower
}

type kResult struct {
	at  time.Duration
	n   int64
	err error
}

type kWait struct {
	proc                   int
	kind, resource, holder string
	start, dur             time.Duration
}

// kObserver logs every wait a run reports, each slice's run wait
// included, and passes the waits and slices on to rec.
type kObserver struct {
	rec *obs.Recorder
	out *kOutcome
}

func (o kObserver) Wait(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
	o.out.waits = append(o.out.waits, kWait{proc, kind, resource, holder, start, dur})
	o.rec.Wait(proc, kind, resource, holder, holderID, start, dur)
}

func (o kObserver) Slice(proc, core int, account, kind string, start, dur time.Duration) {
	o.out.waits = append(o.out.waits, kWait{proc, "run", "cpu", "", start, dur})
	o.rec.Slice(proc, core, account, kind, start, dur)
}

// kTick is what a measurement window boundary reads.
type kTick struct {
	lock                 sim.LockStats
	dirty, resident      int64
	cpu, kcpu            time.Duration
	modes                uint64
	storeReads, storeWrs int
}

// kOutcome is everything TestKernRunMatchesStraightLine requires the
// run and the straight-line code to agree on.
type kOutcome struct {
	results   [][]kResult
	events    []time.Duration // the time of every engine event, in order
	waits     []kWait
	ticks     []kTick
	busy      []time.Duration
	cpu       []time.Duration
	locks     map[string]sim.LockStats
	spanLocks []obs.LockAgg // lru_lock and wb_lock waits the spans attributed, per tenant
	slices    []obs.SliceEvent
	cores     []obs.CoreEvent
	obsWaits  []obs.WaitEvent
	reads     []extentRec
	writes    []extentRec
	sizes     []int64               // the store's file sizes
	faults    metrics.FaultCounters // a CephStore's retries and failovers
	cover     map[string]int
	bareCover map[string]int // the paths of the bare applications' calls

	panicked   string // the model's panic, if it panicked
	unfinished int    // applications still running at kDeadline
}

// kDeadline bounds a scenario's simulated time.
const kDeadline = time.Second

func randomKScenario(rng *rand.Rand) kScenario {
	const page = 4 << 10
	us := time.Microsecond
	sc := kScenario{cores: 1 + rng.Intn(3)}
	switch rng.Intn(3) {
	case 0:
		sc.memLimit = int64(160+rng.Intn(512)) * page
	case 1:
		sc.memLimit = int64(1+rng.Intn(8)) << 20
	}
	if rng.Intn(2) == 0 {
		sc.maxDirty = int64(8+rng.Intn(128)) * page
	}
	if rng.Intn(3) == 0 {
		sc.readDelay = time.Duration(rng.Intn(200)) * us
	}
	if rng.Intn(2) == 0 {
		sc.writeDelay = time.Duration(rng.Intn(200)) * us
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		size := int64(0)
		if rng.Intn(4) > 0 {
			size = int64(1+rng.Intn(256)) * page
			if rng.Intn(3) == 0 {
				size += 1 + rng.Int63n(page-1)
			}
		}
		sc.files = append(sc.files, size)
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		app := kApp{readOnly: rng.Intn(8) == 0, direct: rng.Intn(8) == 0}
		if rng.Intn(3) > 0 {
			app.mask = cpu.Mask(1 + rng.Intn(1<<sc.cores-1))
		}
		for j, m := 0, 1+rng.Intn(12); j < m; j++ {
			op := kOp{file: rng.Intn(len(sc.files))}
			switch r := rng.Intn(20); {
			case r < 11:
				op.kind = kRead
			case r < 17:
				op.kind = kWrite
			case r < 18:
				op.kind = kClose
			case r < 19:
				op.kind = kClosed
			default:
				op.kind = kUnlink
			}
			if rng.Intn(2) == 0 {
				op.gap = time.Duration(rng.Intn(300)) * us
			}
			size := sc.files[op.file]
			switch rng.Intn(4) {
			case 0: // past the provisioned end
				op.off = size + int64(rng.Intn(4))*page
			case 1: // unaligned
				op.off = rng.Int63n(size + page)
			default:
				op.off = int64(rng.Intn(int(size/page)+1)) * page
			}
			switch rng.Intn(3) {
			case 0:
				op.n = 1 + rng.Int63n(page)
			case 1:
				op.n = page
			default:
				op.n = int64(1+rng.Intn(64)) * page
			}
			app.ops = append(app.ops, op)
		}
		sc.apps = append(sc.apps, app)
	}
	sc.shared = rng.Intn(4) == 0
	for i, n := 0, rng.Intn(4); i < n; i++ {
		sc.toggles = append(sc.toggles, kToggle{
			at:       time.Duration(rng.Intn(3000)) * us,
			back:     time.Duration(rng.Intn(2000)) * us,
			brownout: rng.Intn(3) == 0,
		})
	}
	return sc
}

func kPath(i int) string { return fmt.Sprintf("/f%d", i) }

// pagedOpens is a mount as Syscalls' inner filesystem that keeps, per
// process, the page-cache handle its last successful Open returned, so a
// scenario reaches the handle under the one Syscalls wraps.
type pagedOpens struct {
	*Mount
	last map[*sim.Proc]*pagedHandle
}

// Start starts no Open run, so that every open reaches Open and its
// handle is kept.
func (o *pagedOpens) Start(vfsapi.Ctx, vfsapi.Call, func()) vfsapi.Run { return nil }

func (o *pagedOpens) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	h, err := o.Mount.Open(ctx, path, flags)
	if err == nil {
		o.last[ctx.P] = h.(*pagedHandle)
	}
	return h, err
}

// kHandle is an open file of a scenario: the handle Syscalls returned
// and the page-cache handle under it.
type kHandle struct {
	h  vfsapi.Handle
	ph *pagedHandle
}

// runKScenario runs sc on a fresh kernel, each Read, Write and Close
// through the straight-line oracle or the real system call. Every
// application opens each file through Syscalls, retries the open while
// the mount is down, and reopens a handle a crash left stale or a close
// dropped. A callback ticks at a fixed period and reads the kernel's
// lock, dirty and residency counters and the pool's and flushers' CPU
// time, as a measurement window boundary would.
func runKScenario(sc kScenario, straight bool, tick time.Duration) kOutcome {
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, sc.cores)
	k := New(e, cpus, params)
	rec := obs.New(obs.Config{Clock: e.Now})
	k.SetRecorder(rec)
	store := newFakeStore(e)
	store.readDelay, store.writeDelay = sc.readDelay, sc.writeDelay
	var clus *cluster.Cluster
	var mstore Store = store
	if sc.ceph {
		clus = cluster.New(e, params, 6)
		clus.SetReplication(2)
		mstore = NewCephStore(k, clus)
	}
	m := k.Mount(mstore, MountConfig{Name: "m", MemLimit: sc.memLimit, MaxDirty: sc.maxDirty})
	opens := &pagedOpens{Mount: m, last: map[*sim.Proc]*pagedHandle{}}
	s := NewSyscalls(k, opens)
	acct := cpu.NewAccount("pool")
	o, bare := &straightLine{cover: map[string]int{}}, &straightLine{cover: map[string]int{}}
	out := kOutcome{cover: o.cover, bareCover: bare.cover}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events = append(out.events, ev.At)
		}
	})
	e.SetObserver(kObserver{rec, &out})
	var ino0 uint64 // file 0's ino, which the OSD toggles aim at
	for i, size := range sc.files {
		if clus != nil {
			clus.Provision(kPath(i), size)
			if i == 0 {
				n, _ := clus.Tree().Lookup(kPath(0))
				ino0 = n.Ino
			}
			continue
		}
		ino, _ := store.Create(vfsapi.Ctx{}, kPath(i))
		store.nodes[ino].Size = size
	}
	if sc.degraded > 0 {
		clus.OSDs()[clus.PlacementOf(ino0, 0)].SetDegraded(sc.degraded)
	}
	live := len(sc.apps)
	for _, tg := range sc.toggles {
		e.Go("toggle", func(p *sim.Proc) {
			p.Sleep(tg.at)
			if live == 0 {
				return
			}
			if clus != nil && (tg.osd || tg.partition) {
				osd := clus.PlacementOf(ino0, 0)
				if tg.osd {
					clus.OSDs()[osd].Crash()
					p.Sleep(tg.back)
					clus.OSDs()[osd].Restart()
					return
				}
				nic := clus.Fabric().Servers[osd]
				if tg.client {
					nic = clus.Fabric().Client
				}
				nic.SetPartitioned(true)
				p.Sleep(tg.back)
				nic.SetPartitioned(false)
				return
			}
			if tg.brownout {
				k.BrownoutEnter()
				p.Sleep(tg.back)
				k.BrownoutExit()
				return
			}
			m.Crash()
			p.Sleep(tg.back)
			m.Restart(vfsapi.Ctx{P: p})
		})
	}
	out.results = make([][]kResult, len(sc.apps))
	shared := make([]*kHandle, len(sc.files))
	for i, app := range sc.apps {
		th := cpus.NewThread(acct, app.mask)
		e.Go("app", func(p *sim.Proc) {
			defer func() {
				if live--; live == 0 {
					k.Stop()
				}
			}()
			ctx := vfsapi.Ctx{P: p, T: th}
			o := o
			if app.bare {
				o = bare
			}
			flags := vfsapi.RDWR | vfsapi.CREATE
			if app.readOnly {
				flags = vfsapi.RDONLY
			}
			if app.direct {
				flags |= vfsapi.DIRECT
			}
			handles := shared
			if !sc.shared {
				handles = make([]*kHandle, len(sc.files))
			}
			for _, op := range app.ops {
				p.Sleep(op.gap)
				if op.kind == kUnlink {
					err := s.Unlink(ctx, kPath(op.file))
					out.results[i] = append(out.results[i], kResult{p.Now(), 0, err})
					continue
				}
				h := handles[op.file]
				if h == nil || !app.keep && (m.crashed || h.ph.gen != m.cache.Gen) {
					h = nil
					for range 50 {
						fh, err := s.Open(ctx, kPath(op.file), flags)
						if err == nil {
							h = &kHandle{fh, opens.last[p]}
							break
						}
						p.Sleep(100 * time.Microsecond)
					}
					if h == nil {
						out.results[i] = append(out.results[i], kResult{at: p.Now(), err: vfsapi.ErrCrashed})
						continue
					}
					handles[op.file] = h
				}
				ph := h.ph
				ctx.Span = rec.StartSpan(p.ID(), "app", "op")
				var n int64
				var err error
				switch {
				case straight:
					call := func() (int64, error) {
						switch op.kind {
						case kRead:
							return o.read(ph, ctx, op.off, op.n)
						case kWrite:
							return o.write(ph, ctx, op.off, op.n)
						}
						return 0, o.close(ph, ctx)
					}
					if app.bare {
						n, err = call()
					} else {
						n, err = o.syscall(s, ctx, call)
					}
				default:
					var fh vfsapi.Handle = h.h
					if app.bare {
						fh = ph
					}
					switch op.kind {
					case kRead:
						n, err = fh.Read(ctx, op.off, op.n)
					case kWrite:
						n, err = fh.Write(ctx, op.off, op.n)
					default:
						err = fh.Close(ctx)
					}
				}
				ctx.Span.End(n, err)
				ctx.Span = nil
				out.results[i] = append(out.results[i], kResult{p.Now(), n, err})
				if ph.closed && op.kind != kClosed {
					handles[op.file] = nil
				}
			}
		})
	}
	var window func()
	window = func() {
		out.ticks = append(out.ticks, kTick{k.LockStats(), m.DirtyBytes(), m.Meter().Current(),
			acct.CPUTime(), k.Account().CPUTime(), acct.ModeSwitches(), len(store.reads), len(store.writes)})
		if live > 0 {
			e.After(tick, window)
		}
	}
	e.After(tick, window)
	// A model panic ends the run where it happened; the other
	// implementation must panic at the same point.
	func() {
		defer func() {
			if r := recover(); r != nil {
				out.panicked = fmt.Sprint(r, " at ", e.Now())
			}
		}()
		e.RunUntil(kDeadline)
	}()
	out.unfinished = live
	out.busy = cpus.UtilSnapshot()
	out.cpu = []time.Duration{acct.CPUTime(), k.Account().CPUTime(), acct.IOWait()}
	out.locks = k.LockBreakdown()
	for _, tenant := range []string{"app", "m"} {
		for _, lock := range []string{"lru_lock", "wb_lock", "i_mutex"} {
			out.spanLocks = append(out.spanLocks, *rec.Registry().Tenant(tenant).Lock(lock))
		}
	}
	out.slices, out.cores, out.obsWaits = rec.Slices(), rec.CoreEvents(), rec.Waits()
	out.reads, out.writes = store.reads, store.writes
	tree := store.tree
	if clus != nil {
		tree = clus.Tree()
		out.faults = mstore.(*CephStore).FaultStats()
	}
	for i := range sc.files {
		if n, err := tree.Lookup(kPath(i)); err == nil {
			out.sizes = append(out.sizes, n.Size)
		}
	}
	return out
}

func compareK(t *testing.T, name string, got, want kOutcome) {
	t.Helper()
	if got.panicked != want.panicked || got.unfinished != want.unfinished {
		t.Fatalf("%s: panic %q with %d apps unfinished, straight line %q with %d", name, got.panicked, got.unfinished, want.panicked, want.unfinished)
	}
	for i := range want.results {
		if !slices.Equal(got.results[i], want.results[i]) {
			t.Fatalf("%s app %d: ops return %v, straight line %v", name, i, got.results[i], want.results[i])
		}
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d engine events, straight line %d", name, len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: event %d at %v, straight line at %v", name, i, got.events[i], want.events[i])
		}
	}
	if !slices.Equal(got.waits, want.waits) {
		t.Fatalf("%s: wait reports differ:\n got %v\nwant %v", name, got.waits, want.waits)
	}
	if !slices.Equal(got.ticks, want.ticks) {
		t.Fatalf("%s: window counters differ:\n got %v\nwant %v", name, got.ticks, want.ticks)
	}
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"core busy", got.busy, want.busy},
		{"account CPU and I/O wait", got.cpu, want.cpu},
		{"kernel lock stats", got.locks, want.locks},
		{"span lock waits", got.spanLocks, want.spanLocks},
		{"obs slices", got.slices, want.slices},
		{"obs core slices", got.cores, want.cores},
		{"obs waits", got.obsWaits, want.obsWaits},
		{"store reads", got.reads, want.reads},
		{"store writes", got.writes, want.writes},
		{"store sizes", got.sizes, want.sizes},
		{"CephStore faults", got.faults, want.faults},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s %v, straight line %v", name, c.what, c.got, c.want)
		}
	}
}

// TestKernRunMatchesStraightLine is a differential test of the request
// run of a kernel mount's Read, Write and Close system calls against
// the straight-line code it replaced: over random core counts and
// masks, memory and dirty limits, store delays, file sizes and op mixes
// — hits, misses, reads at and across the end of file, DIRECT and
// read-only handles, overlapping fetches, contended lru_lock, i_mutex
// and wb_lock, writes over the memory limit and over both dirty
// thresholds, closes of written, unlinked and closed handles — with the
// mount crashing and restarting and the kernel entering brownout at
// random times, every op must return at the same time with the same
// result, the engine must run the same events at the same times, the
// wait reports must match in order, and the lock, dirty, residency and
// CPU counters, the obs slices and lock waits and the store traffic
// must agree at every window boundary and at the end. The straight
// line's path counts show that the scenarios reach every point where
// the run hands control back.
func TestKernRunMatchesStraightLine(t *testing.T) {
	us := time.Microsecond
	const page = 4 << 10
	seq := func(file int, kind kOpKind, offs ...int64) []kOp {
		var ops []kOp
		for _, off := range offs {
			ops = append(ops, kOp{kind: kind, file: file, off: off, n: page})
		}
		return ops
	}
	big := func(ops []kOp) []kOp {
		for i := range ops {
			ops[i].n = 64 * page
		}
		return ops
	}
	fixed := map[string]kScenario{
		"hit, EOF and a clamped read": {cores: 2, files: []int64{3*page + 100}, apps: []kApp{
			{ops: append(seq(0, kRead, 0, 0, page, 3*page, 5*page), kOp{file: 0, off: 2 * page, n: 4 * page})},
		}},
		"DIRECT": {cores: 2, files: []int64{16 * page}, apps: []kApp{
			{direct: true, ops: append(seq(0, kRead, 0, page, 20*page), seq(0, kWrite, 0, 16*page, 17*page)...)},
			{ops: seq(0, kRead, 0, page)},
		}},
		"miss and an in-flight fetch": {cores: 2, readDelay: 50 * us, files: []int64{256 * page}, apps: []kApp{
			{ops: seq(0, kRead, 0, page)}, {ops: seq(0, kRead, 0, page)}, {ops: seq(0, kRead, page, 0)},
		}},
		"brownout": {cores: 2, files: []int64{64 * page, 0}, toggles: []kToggle{{at: 0, back: time.Millisecond, brownout: true}}, apps: []kApp{
			{ops: seq(0, kRead, 0, page, 2*page, 3*page)}, {ops: seq(1, kWrite, 0, page, 2*page, 3*page, 4*page)},
		}},
		"contended locks": {cores: 2, maxDirty: 16 * page, writeDelay: 20 * us, files: []int64{16 * page}, apps: []kApp{
			{ops: seq(0, kWrite, 0, page, 2*page, 0)}, {ops: seq(0, kWrite, 0, page, 2*page)},
			{ops: seq(0, kRead, 0, page, 2*page)}, {ops: seq(0, kRead, 0, 0, 0)},
		}},
		"memory over its limit": {cores: 1, memLimit: 192 * page, files: []int64{512 * page, 0}, apps: []kApp{
			{ops: big(seq(0, kRead, 0, 128*page, 256*page, 384*page, 0))},
			{ops: big(seq(1, kWrite, 0, 64*page, 128*page, 192*page, 256*page, 320*page))},
		}},
		"throttled writers": {cores: 2, maxDirty: 8 * page, writeDelay: 30 * us, files: []int64{0}, apps: []kApp{
			{ops: seq(0, kWrite, 0, page, 2*page, 3*page, 4*page, 5*page, 6*page, 7*page, 8*page, 9*page, 10*page, 11*page)},
			{ops: seq(0, kWrite, 12*page, 13*page, 14*page, 15*page, 16*page, 17*page, 18*page, 19*page, 20*page)},
		}},
		"a shared handle closed mid-write": {cores: 2, shared: true, files: []int64{0}, apps: []kApp{
			{ops: []kOp{{kind: kWrite, n: page}, {kind: kWrite, off: page, n: 64 * page}, {kind: kWrite, off: 65 * page, n: 64 * page}}},
			{ops: []kOp{{gap: 10 * us, kind: kClosed}, {gap: 30 * us, kind: kClose}}},
		}},
		"handles kept across a crash": {cores: 1, files: []int64{4 * page}, toggles: []kToggle{{at: 100 * us, back: 300 * us}}, apps: []kApp{
			{keep: true, ops: []kOp{{kind: kWrite, n: page}, {gap: 200 * us, kind: kRead, n: page}, {kind: kWrite, n: page}, {kind: kClose}}},
			{keep: true, ops: []kOp{{kind: kRead, n: page}, {gap: 500 * us, kind: kClosed}, {kind: kClose}}},
		}},
		"close after a write": {cores: 1, files: []int64{4 * page, 4 * page}, apps: []kApp{
			{ops: []kOp{{kind: kWrite, n: page}, {kind: kClose}, {kind: kRead, n: page}, {kind: kClosed}, {kind: kRead, n: page},
				{kind: kWrite, file: 1, n: page}, {kind: kUnlink, file: 1}, {kind: kClose, file: 1}}},
			{readOnly: true, ops: []kOp{{kind: kWrite, n: page}, {kind: kClosed}, {kind: kClosed}}},
		}},
	}
	// A known model defect that both implementations share is logged,
	// not failed: a cache smaller than a fetch window livelocks the
	// reader.
	cover, bareCover := map[string]int{}, map[string]int{}
	note := func(name string, o kOutcome, into map[string]int, from map[string]int) {
		for k, v := range from {
			into[k] += v
		}
		if o.panicked != "" || o.unfinished > 0 {
			t.Logf("%s: panic %q, %d apps unfinished at %v", name, o.panicked, o.unfinished, kDeadline)
		}
	}
	// Each scenario runs three times: every call through Syscalls, then
	// with the even and then the odd applications' calls made straight
	// on the page-cache handle, as an Append makes them, interleaved
	// with the others' system calls.
	cephCover := map[string]int{}
	check := func(name string, sc kScenario, tick time.Duration) {
		want := runKScenario(sc, true, tick)
		compareK(t, name, runKScenario(sc, false, tick), want)
		note(name, want, cover, want.cover)
		if sc.ceph {
			note(name, want, cephCover, want.cover)
			cephCover["read retried"] += int(want.faults.Retries)
			cephCover["read failed over"] += int(want.faults.Failovers)
			if sc.degraded > 0 && want.faults.Retries >= 2 && want.results[0][1].err == nil {
				cephCover["read retries the primary"]++
			}
		}
		for parity := range 2 {
			bare := sc
			bare.apps = slices.Clone(sc.apps)
			for i := range bare.apps {
				bare.apps[i].bare = i%2 == parity
			}
			name := fmt.Sprintf("%s (bare %d)", name, parity)
			want := runKScenario(bare, true, tick)
			compareK(t, name, runKScenario(bare, false, tick), want)
			note(name, want, bareCover, want.bareCover)
		}
	}
	// Readers and writers of a warm file contend for the kernel locks;
	// the mount crashes at instants where one of them returns, so the
	// others are parked inside their runs.
	contended := func(toggles ...kToggle) kScenario {
		sc := kScenario{cores: 2, maxDirty: 64 * page, files: []int64{8 * page}, toggles: toggles}
		for i := range 4 {
			warm := kOp{n: 8 * page}
			kind := kRead
			if i >= 2 {
				kind = kWrite
			}
			ops := append([]kOp{warm}, seq(0, kind, 0, page, 2*page, 3*page, 4*page, 5*page)...)
			ops[1].gap = time.Millisecond
			sc.apps = append(sc.apps, kApp{ops: ops})
		}
		return sc
	}
	probe := runKScenario(contended(), true, 37*us)
	for i, r := range probe.results[0][1:4] {
		for _, d := range []time.Duration{0, 100, us, 3 * us} {
			fixed[fmt.Sprintf("crash at return %d + %v", i, d)] = contended(kToggle{at: r.at + d, back: 500 * us})
		}
	}
	for i, r := range probe.results[2][1:4] {
		for _, d := range []time.Duration{0, 100, us, 2 * us} {
			fixed[fmt.Sprintf("crash at write return %d + %v", i, d)] = contended(kToggle{at: r.at + d, back: 500 * us})
		}
	}
	// Over a kernel Ceph client the read-miss loop reads the objects in
	// the run: misses over one and two objects, a fetch another reader
	// waits on, the dirty pause and hard limit, and a down OSD, a
	// partitioned one and a crash under a fetch, which hand the object
	// read back to the Retrier or fail the fill.
	cephFixed := map[string]kScenario{
		"miss over one object": {cores: 2, files: []int64{256 * page}, apps: []kApp{
			{ops: big(seq(0, kRead, 0, 64*page))}}},
		"miss over two objects": {cores: 2, files: []int64{6 << 20}, apps: []kApp{
			{ops: []kOp{{kind: kRead, off: 4<<20 - 64*page, n: 128 * page}}}}},
		"miss and an in-flight fetch": fixed["miss and an in-flight fetch"],
		"throttled writers":           fixed["throttled writers"],
		"memory over its limit":       fixed["memory over its limit"],
		"down OSD": {cores: 2, files: []int64{256 * page}, toggles: []kToggle{{at: 10 * us, back: 300 * us, osd: true}}, apps: []kApp{
			{ops: seq(0, kRead, 0, 64*page, 128*page)}, {ops: seq(0, kRead, 8*page, 160*page)}}},
		"partitioned OSD": {cores: 2, files: []int64{256 * page}, toggles: []kToggle{{at: 10 * us, back: 300 * us, partition: true}}, apps: []kApp{
			{ops: seq(0, kRead, 0, 64*page, 128*page)}, {ops: seq(0, kRead, 8*page, 160*page)}}},
		"crash mid-fetch": {cores: 2, files: []int64{256 * page}, toggles: []kToggle{{at: 40 * us, back: 300 * us}}, apps: []kApp{
			{ops: big(seq(0, kRead, 0, 64*page, 128*page))}, {ops: seq(0, kRead, 0, 8*page)}}},
	}
	for name, sc := range cephFixed {
		sc.ceph, sc.readDelay, sc.writeDelay = true, 0, 0
		fixed["CephStore: "+name] = sc
	}
	// A fill whose first Replication() tries fail, while the client is
	// cut off, tries the primary again at try Replication(): through the
	// least-degraded routing, so the healthy replica of its degraded
	// primary serves it. The user-level client pins the primary there
	// (TestChandleRunMatchesStraightLine), so a read attempt with one
	// route for both clients fails one of the two tests.
	past := kScenario{cores: 2, ceph: true, degraded: 8, files: []int64{256 * page}, apps: []kApp{
		{ops: []kOp{{kind: kRead, n: page}, {gap: time.Millisecond, kind: kRead, off: 128 * page, n: page}}}}}
	probe = runKScenario(past, true, 37*us)
	past.toggles = []kToggle{{at: probe.results[0][0].at + time.Millisecond, back: 300 * us, partition: true, client: true}}
	fixed["CephStore: retries past the group"] = past
	for name, sc := range fixed {
		check(name, sc, 37*us)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 1000; n++ {
		sc := randomKScenario(rng)
		tick := time.Duration(20+rng.Intn(300)) * us
		check(fmt.Sprint("scenario ", n), sc, tick)
	}
	// Random scenarios again over a kernel Ceph client, with OSD crashes
	// and partitions among the toggles.
	for n := 0; n < 300; n++ {
		sc := randomKScenario(rng)
		sc.ceph, sc.readDelay, sc.writeDelay = true, 0, 0
		for i := range sc.toggles {
			switch rng.Intn(3) {
			case 0:
				sc.toggles[i].osd, sc.toggles[i].brownout = true, false
			case 1:
				sc.toggles[i].partition, sc.toggles[i].brownout = true, false
			}
		}
		tick := time.Duration(20+rng.Intn(300)) * us
		check(fmt.Sprint("CephStore scenario ", n), sc, tick)
	}
	t.Logf("paths over a CephStore: %v", cephCover)
	for _, path := range []string{
		"read miss", "read waits on fetchQ", "read stale after its fetch", "read retried", "read failed over",
		"read retries the primary", "write paced", "write at the hard dirty limit",
	} {
		if cephCover[path] == 0 {
			t.Errorf("no CephStore scenario reached %q (paths reached: %v)", path, cephCover)
		}
	}
	t.Logf("paths through Syscalls: %v", cover)
	t.Logf("bare paths: %v", bareCover)
	for _, path := range []string{
		"read hit", "read at EOF", "read clamped at EOF", "read DIRECT", "read miss", "read waits on fetchQ",
		"read in brownout", "read on a closed or stale handle", "read stale after its fetch", "evict", "insert into a stale ledger entry",
		"mark a stale ledger entry", "write", "write DIRECT", "write on a read-only handle",
		"write on a closed or stale handle", "write paced", "write at the hard dirty limit", "write stale after its mark",
		"close", "close pushes the size", "close a closed handle", "close a stale handle",
	} {
		if cover[path] == 0 {
			t.Errorf("no scenario reached %q (paths reached: %v)", path, cover)
		}
		if bareCover[path] == 0 {
			t.Errorf("no scenario reached %q bare (paths reached: %v)", path, bareCover)
		}
	}
}

// TestKernRunParksOnce pins what the request run buys: an uncontended
// cached Read, Write and Close through Syscalls each park their process
// once, where the straight line parked three, five and two times, and so
// do the same calls made bare on the page-cache handle (the bare Close
// hands back before it parks, so its park returns at once). The warm
// cached read and write stay allocation-free.
func TestKernRunParksOnce(t *testing.T) {
	r := newRig(t, MountConfig{})
	s := NewSyscalls(r.kern, r.mount)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := s.Open(ctx, "/f", vfsapi.RDWR|vfsapi.CREATE)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ctx, 0, 64<<10)
		h.Read(ctx, 0, 4<<10)
		ro, err := s.Open(ctx, "/f", vfsapi.RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		bare, err := r.mount.Open(ctx, "/f", vfsapi.RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		bareW, err := r.mount.Open(ctx, "/f", vfsapi.RDWR)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []struct {
			name string
			do   func() (int64, error)
		}{
			{"cached Read", func() (int64, error) { return h.Read(ctx, 4<<10, 4<<10) }},
			{"cached Write", func() (int64, error) { return h.Write(ctx, 8<<10, 4<<10) }},
			{"Close", func() (int64, error) { return 4 << 10, ro.Close(ctx) }},
			{"bare cached Read", func() (int64, error) { return bare.Read(ctx, 4<<10, 4<<10) }},
			{"bare cached Write", func() (int64, error) { return bareW.Write(ctx, 8<<10, 4<<10) }},
			{"bare Close", func() (int64, error) { return 4 << 10, bare.Close(ctx) }},
		} {
			before := ctx.P.Parks()
			if n, err := op.do(); n != 4<<10 || err != nil {
				t.Fatalf("%s returned %d, %v", op.name, n, err)
			}
			if n := ctx.P.Parks() - before; n != 1 {
				t.Errorf("%s parked %d times, want 1", op.name, n)
			}
		}
	})

	allocgate.Check(t, []allocgate.Case{
		{Name: "KernCachedRead", Body: kernCachedRead, N: 5000},
		{Name: "KernCachedWrite", Body: kernCachedWrite, N: 5000},
		{Name: "KernCachedOpenClose", Body: kernCachedOpenClose, N: 5000, Max: 2},
	})
}

// TestHotPathAllocs holds a Read that misses one object and a Write the
// dirty throttle holds allocation-free on a kernel Ceph client's mount: their
// request runs, object reads and throttle waits are pooled.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "KernReadMiss", Body: kernReadMiss, N: 2000},
		{Name: "KernThrottledWrite", Body: kernThrottledWrite, N: 2000},
	})
}

// BenchmarkKernReadMiss reads 64 KiB at a time, 1 MiB apart, through
// Syscalls from a file of a kernel Ceph client that nothing has read
// yet: every Read misses one object, and its request run fetches it.
func BenchmarkKernReadMiss(b *testing.B) { allocgate.Bench(b, kernReadMiss) }

// BenchmarkKernThrottledWrite writes 64 KiB at a time through Syscalls
// to a kernel Ceph client's mount whose dirty limit is 512 KiB, so most
// Writes pause or wait at the hard limit while the flushers write back.
func BenchmarkKernThrottledWrite(b *testing.B) { allocgate.Bench(b, kernThrottledWrite) }

func kernReadMiss(n int) func() {
	return kernCephOps(n, MountConfig{Name: "m"}, func(ctx vfsapi.Ctx, h vfsapi.Handle, i int) {
		h.Read(ctx, int64(i)<<20, 64<<10)
	})
}

func kernThrottledWrite(n int) func() {
	return kernCephOps(n, MountConfig{Name: "m", MaxDirty: 512 << 10}, func(ctx vfsapi.Ctx, h vfsapi.Handle, i int) {
		h.Write(ctx, int64(i%64)*64<<10, 64<<10)
	})
}

// kernCephOps has one thread call op n times, through Syscalls, on a
// handle of an 8 GiB file of a kernel Ceph client's mount configured as
// cfg.
func kernCephOps(n int, cfg MountConfig, op func(ctx vfsapi.Ctx, h vfsapi.Handle, i int)) func() {
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, 2)
	k := New(e, cpus, params)
	clus := cluster.New(e, params, 6)
	clus.Provision("/f", 8<<30)
	s := NewSyscalls(k, k.Mount(NewCephStore(k, clus), cfg))
	th := cpus.NewThread(cpu.NewAccount("pool"), 0)
	e.Go("app", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: th}
		h, err := s.Open(ctx, "/f", vfsapi.RDWR)
		if err != nil {
			panic(err)
		}
		for i := range n {
			op(ctx, h, i)
		}
		k.Stop()
	})
	return e.Run
}

// BenchmarkKernCachedOpenClose opens, through Syscalls, a file whose
// attributes a kernel Ceph client caches and closes it again; one op is
// one Open and one Close. Only the handles allocate: the mount's and
// the one Syscalls wraps it in.
func BenchmarkKernCachedOpenClose(b *testing.B) { allocgate.Bench(b, kernCachedOpenClose) }

func kernCachedOpenClose(n int) func() {
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, 2)
	k := New(e, cpus, params)
	clus := cluster.New(e, params, 6)
	clus.Provision("/f", 1<<20)
	s := NewSyscalls(k, k.Mount(NewCephStore(k, clus), MountConfig{Name: "m"}))
	th := cpus.NewThread(cpu.NewAccount("pool"), 0)
	e.Go("app", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: th}
		for range n + 1 {
			h, err := s.Open(ctx, "/f", vfsapi.RDONLY)
			if err != nil {
				panic(err)
			}
			h.Close(ctx)
		}
		k.Stop()
	})
	return e.Run
}

// BenchmarkKernCachedRead reads 4 KiB at a time through a warm 1 MiB
// file of a kernel mount, through Syscalls; one op is one Read.
func BenchmarkKernCachedRead(b *testing.B) { allocgate.Bench(b, kernCachedRead) }

// BenchmarkKernCachedWrite overwrites 4 KiB at a time of a warm, dirty
// 1 MiB file of a kernel mount, through Syscalls; one op is one Write.
func BenchmarkKernCachedWrite(b *testing.B) { allocgate.Bench(b, kernCachedWrite) }

func kernCachedRead(n int) func() { return kernCachedOps(n, false) }

func kernCachedWrite(n int) func() { return kernCachedOps(n, true) }

func kernCachedOps(n int, write bool) func() {
	const size, op = 1 << 20, 4 << 10
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, 2)
	k := New(e, cpus, params)
	m := k.Mount(newFakeStore(e), MountConfig{Name: "m"})
	s := NewSyscalls(k, m)
	th := cpus.NewThread(cpu.NewAccount("pool"), 0)
	e.Go("app", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: th}
		h, err := s.Open(ctx, "/f", vfsapi.RDWR|vfsapi.CREATE)
		if err != nil {
			panic(err)
		}
		h.Write(ctx, 0, size)
		h.Read(ctx, 0, size)
		for i := range n {
			off := int64(i) * op % size
			if write {
				h.Write(ctx, off, op)
			} else {
				h.Read(ctx, off, op)
			}
		}
		k.Stop()
	})
	return e.Run
}
