package cephclient

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/fusefs"
	"repro/internal/ipc"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// straightLine is the oracle for TestChandleRunMatchesStraightLine: the
// blocking Read and Write that the request run replaced, with the cost
// helpers as they were. The process resumes after every charge and
// every client_lock step. cover counts the paths the oracle took, so a
// test can check its scenarios reached each hand-back of the run.
type straightLine struct {
	cover map[string]int
}

func (o *straightLine) opCPU(c *Client, ctx vfsapi.Ctx) {
	ctx.T.Exec(ctx.P, cpu.User, c.params.ClientOpCost)
}

func (o *straightLine) lockedMeta(c *Client, ctx vfsapi.Ctx, fn func()) {
	ctx.T.LockedChain(ctx.P, c.clientLock, ctx.Span, "client_lock", cpu.Charge(cpu.User, c.params.ClientLockHold))
	fn()
	c.clientLock.Unlock(ctx.P)
}

func (o *straightLine) copyData(c *Client, ctx vfsapi.Ctx, n int64, write bool) {
	total := c.params.CopyTime(n)
	fraction := c.params.ClientLockCopyFraction
	if write {
		fraction *= 0.25
	}
	under := time.Duration(float64(total) * fraction)
	ctx.T.LockedChain(ctx.P, c.clientLock, ctx.Span, "client_lock",
		cpu.Charge(cpu.User, c.params.ClientLockHold+under),
		cpu.Step{Kind: cpu.User, D: total - under, Unlock: c.clientLock})
}

func (o *straightLine) cacheInsert(c *Client, ctx vfsapi.Ctx, f *cfile, off, n int64) {
	o.lockedMeta(c, ctx, func() { c.cache.Insert(f, off, n) })
	if c.cache.Over() {
		o.cover["evict"]++
		o.lockedMeta(c, ctx, func() { c.cache.Evict() })
	}
}

func (o *straightLine) markDirty(c *Client, ctx vfsapi.Ctx, f *cfile, off, n int64) bool {
	revoked := false
	o.lockedMeta(c, ctx, func() {
		if revoked = f.X.revoked; !revoked {
			c.cache.MarkDirty(f, off, n, c.eng.Now())
		}
	})
	if revoked {
		return false
	}
	if c.cache.DirtyBytes >= c.cfg.MaxDirty/2 {
		c.flushQ.Broadcast()
	}
	if c.cache.DirtyBytes >= c.cfg.MaxDirty && !c.stopped {
		o.cover["write throttled"]++
	}
	for c.cache.DirtyBytes >= c.cfg.MaxDirty && !c.stopped {
		start := c.eng.Now()
		c.throttleQ.WaitTimeout(ctx.P, c.params.DirtyThrottleCheck)
		ctx.T.Account().AddIOWait(c.eng.Now() - start)
	}
	return true
}

// readBackend is the bounded backend read of a fill, through the
// client's Retrier.
func (o *straightLine) readBackend(c *Client, ctx vfsapi.Ctx, ino uint64, off, n int64) error {
	return c.retry.Do(ctx, true, func(try, member int) error {
		if try > 0 {
			o.cover["read retried"]++
			if try >= c.clus.Replication() && member == 0 {
				o.cover["read retries the primary"]++
			}
			return c.clus.ReadReplica(ctx, ino, off, n, member)
		}
		return c.clus.Read(ctx, ino, off, n)
	})
}

func (o *straightLine) read(h *chandle, ctx vfsapi.Ctx, off, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, vfsapi.ErrClosed
	}
	c := h.c
	o.opCPU(c, ctx)
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
	o.lockedMeta(c, ctx, func() { c.cache.Touch(h.f) })
	fetchLen := h.ra.Extend(off, n, h.f.Size, cache.MaxReadahead)
	missed := false
	for first := true; ; first = false {
		if err := h.failIfStale(ctx); err != nil {
			if first {
				o.cover["read stale at its claim"]++
			}
			return 0, err
		}
		var g extent.Extent
		wait := false
		o.lockedMeta(c, ctx, func() { g, wait = h.f.Claim(off, fetchLen) })
		if wait {
			o.cover["read waits on fetchQ"]++
			c.fetchQ.WaitTimeout(ctx.P, c.params.DirtyThrottleCheck)
			continue
		}
		if g.Len == 0 {
			break
		}
		o.cover["read miss"]++
		missed = true
		c.names.Send(ctx, g.Len)
		rerr := o.readBackend(c, ctx, h.f.Ino, g.Off, g.Len)
		if rerr != nil {
			o.lockedMeta(c, ctx, func() { h.f.Fetching.Remove(g.Off, g.Len) })
			c.fetchQ.Broadcast()
			return 0, rerr
		}
		if err := h.failIfStale(ctx); err != nil {
			o.cover["read stale after its fetch"]++
			o.lockedMeta(c, ctx, func() { h.f.Fetching.Remove(g.Off, g.Len) })
			c.fetchQ.Broadcast()
			return 0, err
		}
		c.stats.MissBytes += g.Len
		o.cacheInsert(c, ctx, h.f, g.Off, g.Len)
		o.lockedMeta(c, ctx, func() { h.f.Fetching.Remove(g.Off, g.Len) })
		c.fetchQ.Broadcast()
	}
	if !missed {
		o.cover["read hit"]++
	}
	c.stats.ReadBytes += n
	o.copyData(c, ctx, n, false)
	return n, nil
}

func (o *straightLine) write(h *chandle, ctx vfsapi.Ctx, off, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, vfsapi.ErrClosed
	}
	if !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE) {
		return 0, vfsapi.ErrReadOnly
	}
	if n <= 0 {
		return 0, nil
	}
	c := h.c
	o.opCPU(c, ctx)
	recapped := h.f.X.revoked && !c.crashed && h.gen == c.cache.Gen
	if recapped {
		o.cover["write recaps before its copy"]++
	}
	h.recap(ctx)
	h.wrote = true
	c.stats.WriteBytes += n
	o.copyData(c, ctx, n, true)
	for first := true; ; first = false {
		if err := h.failIfStale(ctx); err != nil {
			if first {
				o.cover["write stale after its copy"]++
			}
			if first && recapped {
				o.cover["write recaps, then finds its handle stale"]++
			}
			return 0, err
		}
		revoked := h.f.X.revoked
		if first && revoked {
			o.cover["write recaps after its copy"]++
		}
		h.recap(ctx)
		if revoked && (c.crashed || h.gen != c.cache.Gen) {
			o.cover["write goes stale in a recap after its copy"]++
		}
		o.cacheInsert(c, ctx, h.f, off, n)
		if end := off + n; end > h.f.Size {
			h.f.Size = end
		}
		if o.markDirty(c, ctx, h.f, off, n) {
			return n, nil
		}
		o.cover["write mark revoked"]++
	}
}

// straightHandle serves a transport through the straight-line oracle.
// It is no vfsapi.Starter, so the transport hands control back to the
// process, which calls Read or Write after its dispatch and, under a
// FUSE crossing, starts the reply chain after them, as before the
// request run started at the dispatch.
type straightHandle struct {
	h   *chandle
	o   *straightLine
	via string
}

func (h straightHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	h.o.cover[h.via+" read"]++
	return h.o.read(h.h, ctx, off, n)
}

func (h straightHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	h.o.cover[h.via+" write"]++
	return h.o.write(h.h, ctx, off, n)
}

func (h straightHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) { return h.h.Append(ctx, n) }
func (h straightHandle) Fsync(ctx vfsapi.Ctx) error                    { return h.h.Fsync(ctx) }
func (h straightHandle) Close(ctx vfsapi.Ctx) error                    { return h.h.Close(ctx) }
func (h straightHandle) Size() int64                                   { return h.h.Size() }
func (h straightHandle) Path() string                                  { return h.h.Path() }

// daemonFS is the filesystem a transport of the test serves: the
// client, with each handle Open returns recorded for the application
// process that opened it, and served by the oracle when o is set.
type daemonFS struct {
	*Client
	o      *straightLine
	via    string // the transport, for the oracle's path counts
	opened map[int]*chandle
}

// Start starts no Open run, so that every open through a transport
// reaches Open and its handle is recorded.
func (fs *daemonFS) Start(vfsapi.Ctx, vfsapi.Call, func()) vfsapi.Run { return nil }

func (fs *daemonFS) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	h, err := fs.Client.Open(ctx, path, flags)
	if err != nil {
		return nil, err
	}
	fs.opened[ctx.P.ID()] = h.(*chandle)
	if fs.o != nil {
		return straightHandle{h.(*chandle), fs.o, fs.via}, nil
	}
	return h, nil
}

// chOp is one Read or Write of an application: issued after gap, on
// file file, of n bytes at off.
type chOp struct {
	gap    time.Duration
	write  bool
	file   int
	off, n int64
}

type chApp struct {
	mask cpu.Mask
	ops  []chOp
}

// chToggle crashes the client at at and restarts it after back, or,
// with revoke, has a second client open file at at, which revokes the
// first client's caps. With osd it crashes the OSD serving file's first
// object for back instead, and with partition it cuts that OSD's
// network, or with client too the client's, for back.
type chToggle struct {
	at             time.Duration
	back           time.Duration
	revoke         bool
	osd, partition bool
	client         bool
	file           int
}

// chMount is how the applications reach the client.
type chMount uint8

const (
	chDirect chMount = iota // by calls into the client, as Danaus does
	chFUSE                  // through a FUSE mount of the client (F)
	chFUSE2                 // through a FUSE mount of a FUSE mount of the client (F/F)
	chIPC                   // through the shared-memory queues of a Danaus service (D)
)

type chScenario struct {
	cores      int
	cacheLimit int64
	maxDirty   int64
	files      []int64 // provisioned sizes; a file of size 0 starts empty
	apps       []chApp
	toggles    []chToggle
	mount      chMount
	breaker    bool    // the client's Retrier has a circuit breaker
	replicated bool    // the cluster keeps two copies of each object
	degraded   float64 // the OSD serving file 0's first object is this many times slower
}

type chResult struct {
	at  time.Duration
	n   int64
	err error
}

type chWait struct {
	proc                   int
	kind, resource, holder string
	start, dur             time.Duration
}

// chTick is what a measurement window boundary reads.
type chTick struct {
	lock  sim.LockStats
	dirty int64
	cpu   time.Duration
	stats CacheStats
}

// chOutcome is everything TestChandleRunMatchesStraightLine requires
// the run and the straight-line code to agree on.
type chOutcome struct {
	results [][]chResult
	events  []time.Duration // the time of every engine event, in order
	waits   []chWait
	ticks   []chTick
	busy    []time.Duration
	cpu     []time.Duration
	slices  []obs.SliceEvent
	mds     [][2]time.Duration // the start and end of each MDS round trip the slices hold
	lock    sim.LockStats
	spans   obs.LockAgg // client_lock waits the spans attributed
	stats   CacheStats
	faults  metrics.FaultCounters
	breaker cluster.BreakerStats
	cover   map[string]int

	panicked   string // the model's panic, if it panicked
	unfinished int    // applications still running at chDeadline
}

// chDeadline bounds a scenario's simulated time. A scenario ends long
// before it unless a reader's fetch window does not fit the cache, which
// livelocks the fetch loop of both implementations alike.
const chDeadline = time.Second

func randomChScenario(rng *rand.Rand) chScenario {
	const page = 4 << 10
	sc := chScenario{cores: 1 + rng.Intn(3)}
	switch rng.Intn(3) {
	case 0:
		sc.cacheLimit = int64(64+rng.Intn(256)) * page
	case 1:
		sc.cacheLimit = int64(1+rng.Intn(4)) << 20
	}
	if rng.Intn(2) == 0 {
		sc.maxDirty = int64(4+rng.Intn(64)) * page
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
		app := chApp{}
		if rng.Intn(3) > 0 {
			app.mask = cpu.Mask(1 + rng.Intn(1<<sc.cores-1))
		}
		for j, m := 0, 1+rng.Intn(12); j < m; j++ {
			op := chOp{write: rng.Intn(3) == 0, file: rng.Intn(len(sc.files))}
			if rng.Intn(2) == 0 {
				op.gap = time.Duration(rng.Intn(300)) * time.Microsecond
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
	for i, n := 0, rng.Intn(4); i < n; i++ {
		tg := chToggle{at: time.Duration(rng.Intn(3000)) * time.Microsecond, file: rng.Intn(len(sc.files))}
		if rng.Intn(3) == 0 {
			tg.back = time.Duration(rng.Intn(2000)) * time.Microsecond
		} else {
			tg.revoke = true
		}
		sc.toggles = append(sc.toggles, tg)
	}
	return sc
}

func chPath(i int) string { return fmt.Sprintf("/f%d", i) }

// runChScenario runs sc on a fresh engine, each Read and Write through
// the straight-line oracle or the real handle, called directly, through
// one or two FUSE mounts or through an IPC transport. Every application opens each file
// read-write, retries the open while the client is down, and reopens a
// handle a crash left stale. A callback ticks at a fixed period and
// reads the client's lock, dirty and cache counters and the pool's CPU
// time, as a measurement window boundary would.
func runChScenario(sc chScenario, straight bool, tick time.Duration) chOutcome {
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, sc.cores)
	clus := cluster.New(e, params, 6)
	acct := cpu.NewAccount("pool")
	cfg := Config{Name: "client", Acct: acct, CacheLimit: sc.cacheLimit, MaxDirty: sc.maxDirty}
	if sc.breaker {
		cfg.Breaker = func(from, to cluster.BreakerState) {}
	}
	c := New(e, cpus, params, clus, cfg)
	other := New(e, cpus, params, clus, Config{Name: "other"})
	rec := obs.New(obs.Config{Clock: e.Now})
	o := &straightLine{cover: map[string]int{}}
	out := chOutcome{cover: o.cover}
	daemon := cpu.NewAccount("daemon")
	served := &daemonFS{Client: c, via: "FUSE", opened: map[int]*chandle{}}
	if straight {
		served.o = o
	}
	var mount vfsapi.FileSystem
	switch sc.mount {
	case chIPC:
		served.via = "IPC"
		mount = ipc.New(e, cpus, params, served, ipc.Config{Name: "svc", Acct: daemon})
	case chFUSE:
		mount = fusefs.New(e, cpus, params, served, fusefs.Config{Name: "fuse", Acct: daemon, Threads: 2})
	case chFUSE2:
		inner := fusefs.New(e, cpus, params, served, fusefs.Config{Name: "fuse-inner", Acct: daemon, Threads: 2})
		// The outer daemon serves the inner mount's handles, as a union's
		// Open returns its branch's handle, and starts their requests as
		// runs.
		mount = fusefs.New(e, cpus, params, inner, fusefs.Config{Name: "fuse-outer", Acct: daemon, Threads: 2})
	}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events = append(out.events, ev.At)
		}
	})
	e.SetWaitObserver(func(proc int, kind, resource, holder string, _ int, start, dur time.Duration) {
		out.waits = append(out.waits, chWait{proc, kind, resource, holder, start, dur})
	})
	if sc.replicated {
		clus.SetReplication(2)
	}
	for i, size := range sc.files {
		if size > 0 {
			clus.Provision(chPath(i), size)
		}
	}
	if sc.degraded > 0 {
		n, _ := clus.Tree().Lookup(chPath(0))
		clus.OSDs()[clus.PlacementOf(n.Ino, 0)].SetDegraded(sc.degraded)
	}
	live := len(sc.apps)
	for _, tg := range sc.toggles {
		e.Go("toggle", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(cpu.NewAccount("toggle"), 0)}
			p.Sleep(tg.at)
			if live == 0 {
				return
			}
			if tg.revoke {
				if h, err := other.Open(ctx, chPath(tg.file), vfsapi.RDONLY); err == nil {
					h.Close(ctx)
				}
				return
			}
			if tg.osd || tg.partition {
				// Files provisioned empty have no ino yet: aim at the
				// placement of ino 0 then.
				var ino uint64
				if n, err := clus.Tree().Lookup(chPath(tg.file)); err == nil {
					ino = n.Ino
				}
				osd := clus.PlacementOf(ino, 0)
				nic := clus.Fabric().Servers[osd]
				if tg.client {
					nic = clus.Fabric().Client
				}
				if tg.osd {
					clus.OSDs()[osd].Crash()
					p.Sleep(tg.back)
					clus.OSDs()[osd].Restart()
					return
				}
				nic.SetPartitioned(true)
				p.Sleep(tg.back)
				nic.SetPartitioned(false)
				return
			}
			c.Crash()
			p.Sleep(tg.back)
			if live > 0 {
				c.Restart(ctx)
			}
		})
	}
	out.results = make([][]chResult, len(sc.apps))
	for i, app := range sc.apps {
		th := cpus.NewThread(acct, app.mask)
		e.Go("app", func(p *sim.Proc) {
			defer func() {
				if live--; live == 0 {
					c.Stop()
					other.Stop()
				}
			}()
			ctx := vfsapi.Ctx{P: p, T: th}
			handles := make([]*chandle, len(sc.files))
			fuseHandles := make([]vfsapi.Handle, len(sc.files))
			open := func(f int) *chandle {
				for range 50 {
					if mount != nil {
						fh, err := mount.Open(ctx, chPath(f), vfsapi.RDWR|vfsapi.CREATE)
						if err == nil {
							fuseHandles[f] = fh
							return served.opened[p.ID()]
						}
					} else if h, err := c.Open(ctx, chPath(f), vfsapi.RDWR|vfsapi.CREATE); err == nil {
						return h.(*chandle)
					}
					p.Sleep(100 * time.Microsecond)
				}
				return nil
			}
			for _, op := range app.ops {
				p.Sleep(op.gap)
				h := handles[op.file]
				if h == nil || h.stale() {
					if h = open(op.file); h == nil {
						out.results[i] = append(out.results[i], chResult{at: p.Now(), err: ErrCrashed})
						continue
					}
					handles[op.file] = h
				}
				ctx.Span = rec.StartSpan(p.ID(), "app", "op")
				var n int64
				var err error
				switch {
				case mount != nil && op.write:
					n, err = fuseHandles[op.file].Write(ctx, op.off, op.n)
				case mount != nil:
					n, err = fuseHandles[op.file].Read(ctx, op.off, op.n)
				case straight && op.write:
					n, err = o.write(h, ctx, op.off, op.n)
				case straight:
					n, err = o.read(h, ctx, op.off, op.n)
				case op.write:
					n, err = h.Write(ctx, op.off, op.n)
				default:
					n, err = h.Read(ctx, op.off, op.n)
				}
				ctx.Span.End(n, err)
				ctx.Span = nil
				out.results[i] = append(out.results[i], chResult{p.Now(), n, err})
			}
		})
	}
	var window func()
	window = func() {
		out.ticks = append(out.ticks, chTick{c.clientLock.Stats(), c.DirtyBytes(), acct.CPUTime(), c.Stats()})
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
		e.RunUntil(chDeadline)
	}()
	out.unfinished = live
	out.busy = cpus.UtilSnapshot()
	out.cpu = []time.Duration{acct.CPUTime(), other.Account().CPUTime(), daemon.CPUTime()}
	if out.panicked == "" {
		// A panic unwinds the deferred scope exits of the process it
		// ran in, which differs between the two forms.
		out.slices = rec.Slices()
		for _, s := range out.slices {
			if rec.Str(s.Layer) == string(obs.LayerMDS) {
				out.mds = append(out.mds, [2]time.Duration{s.Start, s.Start + s.Dur})
			}
		}
	}
	out.lock = c.clientLock.Stats()
	out.spans = *rec.Registry().Tenant("app").Lock("client_lock")
	out.stats = c.Stats()
	out.faults = c.FaultStats()
	out.breaker = c.BreakerStats()
	o.cover["read denied by the breaker"] += int(out.breaker.ShortCircuits)
	return out
}

func compareCh(t *testing.T, name string, got, want chOutcome) {
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
		{"account CPU", got.cpu, want.cpu},
		{"obs slices", got.slices, want.slices},
		{"client_lock stats", got.lock, want.lock},
		{"span lock waits", got.spans, want.spans},
		{"cache stats", got.stats, want.stats},
		{"fault stats", got.faults, want.faults},
		{"breaker stats", got.breaker, want.breaker},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("%s: %s %v, straight line %v", name, c.what, c.got, c.want)
		}
	}
}

// TestChandleRunMatchesStraightLine is a differential test of the
// request run of chandle.Read and Write against the straight-line code
// it replaced: over random core counts and masks, cache and dirty
// limits, file sizes and op mixes — hits, misses, reads at and across
// the end of file, overlapping fetches, contended client_lock, writes
// over the cache limit and over the dirty limit — with the client
// crashing and restarting (also inside a write's recap) and a second
// client revoking its caps at random times, every op must return at the
// same time with the same result, the engine must run the same events
// at the same times, the wait reports must match in order, and the
// lock, cache, CPU and dirty counters must agree at every window
// boundary and at the end. The
// applications reach the client directly, through a FUSE mount,
// through a FUSE mount stacked on another (F/F), or through an IPC
// transport (D); there the transport starts the run's request at its
// dispatch and the run takes the crossing's reply, while the oracle's
// handle starts no run, so its process calls Read or Write after the
// dispatch and the crossing runs its reply chain; the obs slices must
// match too. Requests of up to 4 MiB cross in several FUSE chunks, whose
// replies start the next chunk's crossing, and under F/F the outer
// daemon starts the inner mount's request as a run. The straight line's
// path counts show that the scenarios reach every point where the run
// hands control back.
func TestChandleRunMatchesStraightLine(t *testing.T) {
	us := time.Microsecond
	const page = 4 << 10
	seq := func(file int, write bool, offs ...int64) []chOp {
		var ops []chOp
		for _, off := range offs {
			ops = append(ops, chOp{write: write, file: file, off: off, n: page})
		}
		return ops
	}
	fixed := map[string]chScenario{
		"hit, EOF and a clamped read": {cores: 2, files: []int64{3*page + 100}, apps: []chApp{
			{ops: append(seq(0, false, 0, 0, page, 3*page, 5*page), chOp{file: 0, off: 2 * page, n: 4 * page})},
		}},
		"miss and an in-flight fetch": {cores: 2, files: []int64{64 * page}, apps: []chApp{
			{ops: seq(0, false, 0, page)}, {ops: seq(0, false, 0, page)}, {ops: seq(0, false, page, 0)},
		}},
		"contended client_lock": {cores: 2, files: []int64{16 * page}, apps: []chApp{
			{ops: seq(0, true, 0, page, 2*page, 0)}, {ops: seq(0, true, 0, page, 2*page)},
			{ops: seq(0, false, 0, page, 2*page)}, {ops: seq(0, false, 0, 0, 0)},
		}},
		"cache over its limit": {cores: 1, cacheLimit: 64 * page, files: []int64{128 * page, 0}, apps: []chApp{
			{ops: seq(0, false, 0, 32*page, 64*page, 96*page, 0)}, {ops: seq(1, true, 0, 16*page, 32*page, 48*page, 64*page, 80*page)},
		}},
		"throttled writers": {cores: 2, maxDirty: 8 * page, files: []int64{0}, apps: []chApp{
			{ops: seq(0, true, 0, page, 2*page, 3*page, 4*page, 5*page, 6*page, 7*page, 8*page)},
			{ops: seq(0, true, 9*page, 10*page, 11*page, 12*page, 13*page)},
		}},
		"revoked writers": {cores: 2, files: []int64{8 * page}, toggles: []chToggle{{at: 20 * us, revoke: true}, {at: 60 * us, revoke: true}, {at: 150 * us, revoke: true}}, apps: []chApp{
			{ops: seq(0, true, 0, page, 2*page, 3*page, 4*page, 5*page, 6*page, 7*page)},
			{ops: seq(0, true, 0, page, 2*page, 3*page, 4*page, 5*page, 6*page, 7*page)},
		}},
		"revoked during a copy": {cores: 2, files: []int64{0}, toggles: []chToggle{{at: 100 * us, revoke: true}, {at: 700 * us, revoke: true}, {at: 1500 * us, revoke: true}}, apps: []chApp{
			{ops: []chOp{{write: true, n: 4 << 20}, {write: true, off: 4 << 20, n: 4 << 20}, {write: true, off: 8 << 20, n: 4 << 20}}},
		}},
		// Requests of several FUSE chunks: misses, hits, a read that ends
		// on a short chunk and writes past the end of file.
		// Misses over one and two objects, and a down OSD and a
		// partitioned one under a fetch, which hand the backend read
		// back to the Retrier.
		"miss over two objects": {cores: 2, files: []int64{6 << 20}, apps: []chApp{
			{ops: []chOp{{off: 4<<20 - 32*page, n: 16 * page}, {off: 4<<20 + 64*page, n: page}}},
		}},
		"down OSD": {cores: 2, replicated: true, files: []int64{256 * page}, toggles: []chToggle{{at: 10 * us, back: 300 * us, osd: true}}, apps: []chApp{
			{ops: seq(0, false, 0, 64*page, 128*page)}, {ops: seq(0, false, 8*page, 160*page)},
		}},
		"partitioned OSD": {cores: 2, replicated: true, files: []int64{256 * page}, toggles: []chToggle{{at: 10 * us, back: 300 * us, partition: true}}, apps: []chApp{
			{ops: seq(0, false, 0, 64*page, 128*page)}, {ops: seq(0, false, 8*page, 160*page)},
		}},
		// A client cut off from the cluster opens its breaker, which then
		// denies reads until it half-opens.
		"partitioned client": {cores: 2, breaker: true, replicated: true, files: []int64{256 * page}, toggles: []chToggle{{at: time.Millisecond, back: 20 * time.Millisecond, partition: true, client: true}}, apps: []chApp{
			{ops: seq(0, false, 0, 64*page, 128*page, 192*page)}, {ops: seq(0, false, 8*page, 160*page, 200*page, 240*page)},
			{ops: []chOp{{gap: 2 * time.Millisecond, off: 16 * page, n: page}, {gap: time.Millisecond, off: 32 * page, n: page},
				{gap: time.Millisecond, off: 48 * page, n: page}, {gap: time.Millisecond, off: 80 * page, n: page}}},
			{ops: []chOp{{gap: 8 * time.Millisecond, off: 128 * page, n: page}, {gap: 2 * time.Millisecond, off: 160 * page, n: page},
				{gap: 2 * time.Millisecond, off: 192 * page, n: page}, {gap: 2 * time.Millisecond, off: 224 * page, n: page}}},
		}},
		"large requests": {cores: 2, files: []int64{2<<20 + 100, 0}, apps: []chApp{
			{ops: []chOp{{n: 1 << 20}, {n: 1 << 20}, {off: 3 << 19, n: 1 << 20}, {off: 1 << 20, n: 600 << 10}}},
			{ops: []chOp{{write: true, file: 1, n: 512 << 10}, {write: true, file: 1, off: 512 << 10, n: 300 << 10}, {file: 1, n: 1 << 20}}},
			{ops: []chOp{{gap: 50 * us, off: 1 << 20, n: 1 << 20}, {off: 0, n: 300 << 10}}},
		}},
	}
	// The known model defects that both implementations share are
	// logged, not failed: a cache smaller than a fetch window livelocks
	// the reader, and eviction can undercharge the cache meter so that a
	// later drop underflows it.
	cover := map[string]int{}
	note := func(name string, o chOutcome) {
		for k, v := range o.cover {
			cover[k] += v
		}
		if o.panicked != "" || o.unfinished > 0 {
			t.Logf("%s: panic %q, %d apps unfinished at %v", name, o.panicked, o.unfinished, chDeadline)
		}
	}
	// Readers and writers of a warm file contend for client_lock; the
	// client crashes at instants where one of them returns, so the others
	// are parked inside their runs.
	contended := func(toggles ...chToggle) chScenario {
		sc := chScenario{cores: 2, files: []int64{8 * page}, toggles: toggles}
		for i := range 4 {
			warm := chOp{file: 0, n: 8 * page}
			ops := append([]chOp{warm}, seq(0, i == 3, 0, page, 2*page, 3*page, 4*page, 5*page)...)
			ops[1].gap = time.Millisecond
			sc.apps = append(sc.apps, chApp{ops: ops})
		}
		return sc
	}
	probe := runChScenario(contended(), true, 37*us)
	for i, r := range probe.results[0][1:4] {
		for _, d := range []time.Duration{0, us, 3 * us} {
			fixed[fmt.Sprintf("crash at return %d + %v", i, d)] = contended(chToggle{at: r.at + d, back: 500 * us})
		}
	}
	// The same through the transports: a served request hands its reply
	// off, a miss or a throttled write falls back to the crossing's
	// blocking reply, and under F/F only the inner crossing takes it.
	mounts := map[string]chMount{"F: ": chFUSE, "F/F: ": chFUSE2, "D: ": chIPC}
	for _, name := range []string{"miss and an in-flight fetch", "contended client_lock", "throttled writers", "revoked writers", "revoked during a copy", "large requests", "down OSD", "partitioned OSD", "partitioned client"} {
		for prefix, mount := range mounts {
			sc := fixed[name]
			sc.mount = mount
			fixed[prefix+name] = sc
		}
	}
	// The client crashes inside the MDS lookup of a write's recap, the
	// last MDS round trip before the write returns: a recap before the
	// copy (the run re-enters at the copy and finds its handle stale at
	// the insert) and one after it (the run re-enters at the insert, past
	// its checks, as the straight line inserts). The first is run directly
	// and through each transport, the second directly and through IPC,
	// where a revocation lands inside a 4 MiB copy.
	inLookup := func(name string, sc chScenario, op int) {
		probe := runChScenario(sc, true, 37*us)
		end := probe.results[0][op].at
		var last [2]time.Duration
		for _, m := range probe.mds {
			if m[1] <= end && m[1] > last[1] {
				last = m
			}
		}
		if last[1] == 0 {
			t.Fatalf("%s: no MDS round trip before write %d returns", name, op)
		}
		for k := range time.Duration(3) {
			crash := sc
			crash.toggles = append([]chToggle{{at: last[0] + (last[1]-last[0])*(k+1)/4, back: 500 * us}}, sc.toggles...)
			fixed[fmt.Sprintf("%s: crash in the recap's lookup %d/4", name, k+1)] = crash
		}
	}
	for prefix, mount := range map[string]chMount{"": chDirect, "F: ": chFUSE, "F/F: ": chFUSE2, "D: ": chIPC} {
		before := chScenario{cores: 2, files: []int64{8 * page}, mount: mount, toggles: []chToggle{{at: 20 * us, revoke: true}}, apps: []chApp{
			{ops: []chOp{{write: true, n: page}, {gap: 5 * time.Millisecond, write: true, off: page, n: page}}},
		}}
		inLookup(prefix+"recap before the copy", before, 1)
		if mount == chDirect || mount == chIPC {
			after := fixed["revoked during a copy"]
			after.mount = mount
			inLookup(prefix+"recap after the copy", after, 1)
		}
	}
	for prefix, mount := range mounts {
		sc := contended()
		sc.mount = mount
		probe := runChScenario(sc, true, 37*us)
		for i, r := range probe.results[0][1:4] {
			for _, d := range []time.Duration{0, us} {
				sc := contended(chToggle{at: r.at + d, back: 500 * us})
				sc.mount = mount
				fixed[fmt.Sprintf("%scrash at return %d + %v", prefix, i, d)] = sc
			}
		}
	}
	// A fill whose first Replication() tries fail, while the client is
	// cut off, tries the primary again at try Replication(), pinned to
	// it, so its degraded primary serves it. The kernel client routes
	// that try to the least-degraded member
	// (TestKernRunMatchesStraightLine), so a read attempt with one route
	// for both clients fails one of the two tests.
	past := chScenario{cores: 2, replicated: true, degraded: 8, files: []int64{256 * page}, apps: []chApp{
		{ops: []chOp{{n: page}, {gap: time.Millisecond, off: 128 * page, n: page}}}}}
	probe = runChScenario(past, true, 37*us)
	past.toggles = []chToggle{{at: probe.results[0][0].at + time.Millisecond, back: 300 * us, partition: true, client: true}}
	fixed["retries past the group"] = past
	for name, sc := range fixed {
		want := runChScenario(sc, true, 37*us)
		compareCh(t, name, runChScenario(sc, false, 37*us), want)
		note(name, want)
	}
	rng := rand.New(rand.NewSource(1))
	via := rand.New(rand.NewSource(2))
	for n := 0; n < 1000; n++ {
		sc := randomChScenario(rng)
		sc.mount = chMount(via.Intn(4))
		tick := time.Duration(20+rng.Intn(300)) * us
		want := runChScenario(sc, true, tick)
		name := fmt.Sprint("scenario ", n)
		compareCh(t, name, runChScenario(sc, false, tick), want)
		note(name, want)
	}
	// Random scenarios again over a cluster that keeps two copies, with
	// OSD crashes and partitions among the toggles and a breaker on half
	// the clients, so reads fail over and fail fast.
	faults := rand.New(rand.NewSource(3))
	for n := 0; n < 300; n++ {
		sc := randomChScenario(rng)
		sc.mount = chMount(via.Intn(4))
		sc.replicated, sc.breaker = true, faults.Intn(2) == 0
		for i := range sc.toggles {
			switch faults.Intn(3) {
			case 0:
				sc.toggles[i].osd, sc.toggles[i].revoke = true, false
			case 1:
				sc.toggles[i].partition, sc.toggles[i].revoke = true, false
			}
			if sc.toggles[i].osd || sc.toggles[i].partition {
				sc.toggles[i].back = time.Duration(faults.Intn(2000)) * us
			}
		}
		tick := time.Duration(20+rng.Intn(300)) * us
		want := runChScenario(sc, true, tick)
		name := fmt.Sprint("fault scenario ", n)
		compareCh(t, name, runChScenario(sc, false, tick), want)
		note(name, want)
	}
	for _, path := range []string{
		"read hit", "read at EOF", "read clamped at EOF", "read miss", "read waits on fetchQ", "read retried", "read retries the primary",
		"read denied by the breaker",
		"read stale at its claim", "read stale after its fetch", "evict", "write throttled", "write stale after its copy",
		"write recaps before its copy", "write recaps after its copy", "write mark revoked",
		"write recaps, then finds its handle stale", "write goes stale in a recap after its copy",
		"FUSE read", "FUSE write", "IPC read", "IPC write",
	} {
		if cover[path] == 0 {
			t.Errorf("no scenario reached %q (paths reached: %v)", path, cover)
		}
	}
}

// TestChandleRunParksOnce pins what the request run buys: an
// uncontended cached Read and Write each park their process once, where
// the straight line parked four and five times, and once too through a
// FUSE mount or an IPC transport, whose dispatch starts the run and
// whose reply the run starts. A write whose caps were revoked parks only
// in its recap's blocking steps and once more for the rest of its run.
// A stale or closed handle starts no run: its error comes from the
// blocking path, and the FUSE reply chain still runs. The warm cached read and write stay allocation-free,
// called directly and through either transport, and so do 1 MiB reads
// and writes of eight FUSE chunks and 1 MiB reads through two stacked
// FUSE mounts.
func TestChandleRunParksOnce(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.client.Open(ctx, "/f", vfsapi.RDWR|vfsapi.CREATE)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ctx, 0, 64<<10)
		h.Read(ctx, 0, 4<<10)
		write := func() (int64, error) { return h.Write(ctx, 8<<10, 4<<10) }
		for _, op := range []struct {
			name  string
			prep  func()
			do    func() (int64, error)
			parks int
		}{
			{"cached Read", nil, func() (int64, error) { return h.Read(ctx, 4<<10, 4<<10) }, 1},
			{"cached Write", nil, write, 1},
			// Revoked by its own client, the writer has no other holder to
			// revoke, so its recap is only the attribute refetch: client_lock
			// holds and an MDS lookup. The blocking write loop that went on
			// after the recap parked 10 times here.
			{"recapping Write", func() { r.client.RevokeCaps(ctx, h.(*chandle).f.Ino) }, write, 7},
			{"Write after the recap", nil, write, 1},
		} {
			if op.prep != nil {
				op.prep()
			}
			before := ctx.P.Parks()
			if n, err := op.do(); n != 4<<10 || err != nil {
				t.Fatalf("%s returned %d, %v", op.name, n, err)
			}
			if n := ctx.P.Parks() - before; n != op.parks {
				t.Errorf("%s parked %d times, want %d", op.name, n, op.parks)
			}
		}
	})

	// Through a transport a cached Read or Write parks once, where it
	// parked twice when the process called the client after the
	// dispatch: the dispatch's continuation starts the request run,
	// and the run starts the FUSE reply or, under IPC, resumes the
	// process. On a stale or closed handle the process serves the
	// request itself: a stale handle's crash check charges CPU, so it
	// parks three times through FUSE (dispatch, charge, reply), and a
	// closed handle twice.
	for _, via := range []string{"FUSE", "IPC"} {
		r = newRig(t, Config{})
		fs := vfsapi.FileSystem(fusefs.New(r.eng, r.cpus, model.Default(), r.client, fusefs.Config{Name: "fuse"}))
		if via == "IPC" {
			fs = ipc.New(r.eng, r.cpus, model.Default(), r.client, ipc.Config{Name: "svc"})
		}
		r.run(t, func(ctx vfsapi.Ctx) {
			app := cpu.NewAccount("app")
			ctx.T = r.cpus.NewThread(app, 0)
			h, err := fs.Open(ctx, "/f", vfsapi.RDWR|vfsapi.CREATE)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(ctx, 0, 64<<10)
			h.Read(ctx, 0, 4<<10)
			read := func() (int64, error) { return h.Read(ctx, 4<<10, 4<<10) }
			write := func() (int64, error) { return h.Write(ctx, 8<<10, 4<<10) }
			for _, op := range []struct {
				name  string
				prep  func()
				do    func() (int64, error)
				n     int64
				err   error
				parks int
				fuse  int // parks through FUSE, if not parks
			}{
				{name: "cached Read", do: read, n: 4 << 10, parks: 1},
				{name: "cached Write", do: write, n: 4 << 10, parks: 1},
				{name: "Read of a stale handle", prep: r.client.Crash, do: read, err: ErrCrashed, parks: 2, fuse: 3},
				{name: "Write of a closed handle", prep: func() {
					r.client.Restart(ctx)
					if h, err = fs.Open(ctx, "/f", vfsapi.RDWR); err != nil {
						t.Fatal(err)
					}
					h.Close(ctx)
				}, do: write, err: vfsapi.ErrClosed, parks: 1, fuse: 2},
			} {
				if op.prep != nil {
					op.prep()
				}
				before, modes, switches := ctx.P.Parks(), app.ModeSwitches(), app.ContextSwitches()
				var n int64
				n, err = op.do()
				if n != op.n || err != op.err {
					t.Fatalf("%s %s returned %d, %v; want %d, %v", via, op.name, n, err, op.n, op.err)
				}
				want := op.parks
				if via == "FUSE" && op.fuse > 0 {
					want = op.fuse
				}
				if got := ctx.P.Parks() - before; got != want {
					t.Errorf("%s %s parked %d times, want %d", via, op.name, got, want)
				}
				if via == "FUSE" && op.err != nil {
					// The entry and the reply chain each switch mode and
					// context once on the application's thread.
					if m, c := app.ModeSwitches()-modes, app.ContextSwitches()-switches; m != 2 || c != 2 {
						t.Errorf("FUSE %s: %d mode and %d context switches on the application thread, want 2 and 2", op.name, m, c)
					}
				}
			}
		})
	}

	allocgate.Check(t, []allocgate.Case{
		{Name: "CachedRead", Body: cachedRead, N: 5000},
		{Name: "CachedWrite", Body: cachedWrite, N: 5000},
		{Name: "CachedFUSERead", Body: cachedFUSERead, N: 5000},
		{Name: "CachedFUSEWrite", Body: cachedFUSEWrite, N: 5000},
		{Name: "CachedIPCRead", Body: cachedIPCRead, N: 5000},
		{Name: "CachedIPCWrite", Body: cachedIPCWrite, N: 5000},
		{Name: "CachedFUSERead1M", Body: cachedFUSERead1M, N: 1000},
		{Name: "CachedFUSEWrite1M", Body: cachedFUSEWrite1M, N: 1000},
		{Name: "CachedFUSE2Read1M", Body: cachedFUSE2Read1M, N: 1000},
		{Name: "CachedOpenClose", Body: cachedOpenClose, N: 5000, Max: 1},
		{Name: "CachedFUSEOpenClose", Body: cachedFUSEOpenClose, N: 5000, Max: 2},
		{Name: "CachedIPCOpenClose", Body: cachedIPCOpenClose, N: 5000, Max: 2},
	})
}

// TestHotPathAllocs holds a Read that misses one object and a Write the
// dirty throttle holds allocation-free on a user-level client: their
// request runs, object reads and throttle waits are pooled.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "ReadMiss", Body: readMiss, N: 2000},
		{Name: "ThrottledWrite", Body: throttledWrite, N: 2000},
	})
}

// BenchmarkReadMiss reads 64 KiB at a time, 1 MiB apart, from a file of
// the user-level client that nothing has read yet: every Read misses
// one object, and its request run fetches it.
func BenchmarkReadMiss(b *testing.B) { allocgate.Bench(b, readMiss) }

// BenchmarkThrottledWrite writes 64 KiB at a time through a client whose
// dirty limit is 256 KiB, so most Writes wait in the dirty throttle
// while the flushers write back.
func BenchmarkThrottledWrite(b *testing.B) { allocgate.Bench(b, throttledWrite) }

func readMiss(n int) func() {
	return clientOps(n, Config{CacheLimit: 1 << 40}, func(ctx vfsapi.Ctx, h vfsapi.Handle, i int) {
		h.Read(ctx, int64(i)<<20, 64<<10)
	})
}

func throttledWrite(n int) func() {
	return clientOps(n, Config{MaxDirty: 256 << 10}, func(ctx vfsapi.Ctx, h vfsapi.Handle, i int) {
		h.Write(ctx, int64(i%64)*64<<10, 64<<10)
	})
}

// clientOps has one thread call op n times on a handle of an 8 GiB file
// of a user-level client configured as cfg.
func clientOps(n int, cfg Config, op func(ctx vfsapi.Ctx, h vfsapi.Handle, i int)) func() {
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, 2)
	clus := cluster.New(e, params, 6)
	clus.Provision("/f", 8<<30)
	acct := cpu.NewAccount("pool")
	cfg.Name, cfg.Acct = "client", acct
	c := New(e, cpus, params, clus, cfg)
	th := cpus.NewThread(acct, 0)
	e.Go("app", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: th}
		h, err := c.Open(ctx, "/f", vfsapi.RDWR)
		if err != nil {
			panic(err)
		}
		for i := range n {
			op(ctx, h, i)
		}
		c.Stop()
	})
	return e.Run
}

// BenchmarkCachedRead reads 4 KiB at a time through a warm 1 MiB file
// of the user-level client; one op is one Read.
func BenchmarkCachedRead(b *testing.B) { allocgate.Bench(b, cachedRead) }

// BenchmarkCachedWrite overwrites 4 KiB at a time of a warm, dirty
// 1 MiB file of the user-level client; one op is one Write.
func BenchmarkCachedWrite(b *testing.B) { allocgate.Bench(b, cachedWrite) }

// BenchmarkCachedFUSERead is BenchmarkCachedRead through a FUSE mount
// of the client (F): one op is one crossing.
func BenchmarkCachedFUSERead(b *testing.B) { allocgate.Bench(b, cachedFUSERead) }

// BenchmarkCachedFUSEWrite is BenchmarkCachedWrite through a FUSE mount
// of the client.
func BenchmarkCachedFUSEWrite(b *testing.B) { allocgate.Bench(b, cachedFUSEWrite) }

// BenchmarkCachedIPCRead is BenchmarkCachedRead through an IPC
// transport to the client (D): one op is one call.
func BenchmarkCachedIPCRead(b *testing.B) { allocgate.Bench(b, cachedIPCRead) }

// BenchmarkCachedIPCWrite is BenchmarkCachedWrite through an IPC
// transport to the client.
func BenchmarkCachedIPCWrite(b *testing.B) { allocgate.Bench(b, cachedIPCWrite) }

// BenchmarkCachedFUSERead1M reads a warm 1 MiB file whole through a
// FUSE mount of the client: one op is one Read of eight 128 KiB chunks.
func BenchmarkCachedFUSERead1M(b *testing.B) { allocgate.Bench(b, cachedFUSERead1M) }

// BenchmarkCachedFUSEWrite1M is BenchmarkCachedFUSERead1M for
// overwrites.
func BenchmarkCachedFUSEWrite1M(b *testing.B) { allocgate.Bench(b, cachedFUSEWrite1M) }

// BenchmarkCachedFUSE2Read1M is BenchmarkCachedFUSERead1M through a
// FUSE mount stacked on another (F/F), whose daemon starts each chunk's
// inner crossing as a run.
func BenchmarkCachedFUSE2Read1M(b *testing.B) { allocgate.Bench(b, cachedFUSE2Read1M) }

// BenchmarkCachedOpenClose opens a file whose attributes the user-level
// client caches and closes it again; one op is one Open and one Close.
// Only the handle allocates.
func BenchmarkCachedOpenClose(b *testing.B) { allocgate.Bench(b, cachedOpenClose) }

// BenchmarkCachedFUSEOpenClose is BenchmarkCachedOpenClose through a
// FUSE mount of the client, whose handle wraps the client's: two
// handles allocate.
func BenchmarkCachedFUSEOpenClose(b *testing.B) { allocgate.Bench(b, cachedFUSEOpenClose) }

// BenchmarkCachedIPCOpenClose is BenchmarkCachedOpenClose through an
// IPC transport to the client, whose handle wraps the client's: two
// handles allocate.
func BenchmarkCachedIPCOpenClose(b *testing.B) { allocgate.Bench(b, cachedIPCOpenClose) }

func cachedRead(n int) func() { return cachedOps(n, false, "", 4<<10) }

func cachedWrite(n int) func() { return cachedOps(n, true, "", 4<<10) }

func cachedFUSERead(n int) func() { return cachedOps(n, false, "FUSE", 4<<10) }

func cachedFUSEWrite(n int) func() { return cachedOps(n, true, "FUSE", 4<<10) }

func cachedIPCRead(n int) func() { return cachedOps(n, false, "IPC", 4<<10) }

func cachedIPCWrite(n int) func() { return cachedOps(n, true, "IPC", 4<<10) }

func cachedFUSERead1M(n int) func() { return cachedOps(n, false, "FUSE", 1<<20) }

func cachedFUSEWrite1M(n int) func() { return cachedOps(n, true, "FUSE", 1<<20) }

func cachedFUSE2Read1M(n int) func() { return cachedOps(n, false, "FUSE/FUSE", 1<<20) }

func cachedOpenClose(n int) func() { return cachedOps(n, false, "", 0) }

func cachedFUSEOpenClose(n int) func() { return cachedOps(n, false, "FUSE", 0) }

func cachedIPCOpenClose(n int) func() { return cachedOps(n, false, "IPC", 0) }

// cachedOps has one thread read or overwrite a warm 1 MiB file op bytes
// at a time, or with a zero op open and close it, calling the client
// directly or through a transport via.
func cachedOps(n int, write bool, via string, op int64) func() {
	const size = 1 << 20
	e := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(e, params, 2)
	clus := cluster.New(e, params, 6)
	acct := cpu.NewAccount("pool")
	c := New(e, cpus, params, clus, Config{Name: "client", Acct: acct})
	var fs vfsapi.FileSystem = c
	switch via {
	case "FUSE":
		fs = fusefs.New(e, cpus, params, c, fusefs.Config{Name: "fuse", Acct: acct})
	case "FUSE/FUSE":
		inner := fusefs.New(e, cpus, params, c, fusefs.Config{Name: "fuse-inner", Acct: acct})
		fs = fusefs.New(e, cpus, params, inner, fusefs.Config{Name: "fuse-outer", Acct: acct})
	case "IPC":
		fs = ipc.New(e, cpus, params, c, ipc.Config{Name: "svc", Acct: acct})
	}
	th := cpus.NewThread(acct, 0)
	e.Go("app", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: th}
		h, err := fs.Open(ctx, "/f", vfsapi.RDWR|vfsapi.CREATE)
		if err != nil {
			panic(err)
		}
		h.Write(ctx, 0, size)
		h.Read(ctx, 0, size)
		h.Close(ctx)
		if h, err = fs.Open(ctx, "/f", vfsapi.RDWR); err != nil {
			panic(err)
		}
		for i := range n {
			switch off := int64(i) * max(op, 1) % size; {
			case op == 0:
				h.Close(ctx)
				h, _ = fs.Open(ctx, "/f", vfsapi.RDWR)
			case write:
				h.Write(ctx, off, op)
			default:
				h.Read(ctx, off, op)
			}
		}
		c.Stop()
	})
	return e.Run
}
