package kern

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cacherun"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/memacct"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Store is the backing of a kernel mount: the local disk filesystem or
// the kernel Ceph client's network path. Data calls block for the
// device or network time they imply. Unlink returns the ino of the
// removed file and Rename that of the file the new path replaced, 0
// when it replaced none.
type Store interface {
	Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error)
	Create(ctx vfsapi.Ctx, path string) (uint64, error)
	Mkdir(ctx vfsapi.Ctx, path string) error
	Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error)
	Unlink(ctx vfsapi.Ctx, path string) (uint64, error)
	Rmdir(ctx vfsapi.Ctx, path string) error
	Rename(ctx vfsapi.Ctx, oldPath, newPath string) (uint64, error)
	SetSize(ctx vfsapi.Ctx, ino uint64, size int64) error
	ReadData(ctx vfsapi.Ctx, ino uint64, off, n int64)
	WriteData(ctx vfsapi.Ctx, ino uint64, off, n int64)
}

// MountConfig configures a kernel mount's caching behaviour.
type MountConfig struct {
	// Name identifies the mount in diagnostics.
	Name string
	// Tenant is the pool the mount's data belongs to, used to tag
	// flusher writeback spans with their originating tenant (the pool
	// whose dirty data recruited the flusher). Defaults to Name.
	Tenant string
	// MemLimit bounds the page-cache bytes this mount may hold (the
	// cgroup memory reservation of its pool).
	MemLimit int64
	// MaxDirty is the dirty-byte throttle threshold (the paper sets it
	// to 50% of pool RAM for the kernel Ceph client).
	MaxDirty int64
	// Meter attributes cache memory; optional.
	Meter *memacct.Meter
}

// Mount is one kernel filesystem instance: a Store fronted by the
// shared page cache. It implements vfsapi.FileSystem.
type Mount struct {
	kern  *Kernel
	store Store
	cfg   MountConfig
	// cache is the page cache's ledger: residency and LRU calls run
	// under lru_lock, dirty marks and writeback pops under wb_lock.
	cache *cache.Cache[*sim.Mutex]

	bgThresh  int64
	flushing  int // flusher threads currently working this mount
	throttleQ *sim.WaitQueue

	// Writeback pacing state (balance_dirty_pages): an EWMA of the
	// recently achieved flush rate paces writers when dirty data sits
	// between the background and hard thresholds.
	flushRate     float64 // bytes/sec
	lastFlushDone time.Duration

	fetchQ *sim.WaitQueue // readers waiting on in-flight page reads

	// crashed marks a host/kernel-client crash: operations fail with
	// vfsapi.ErrCrashed until Restart. The ledger's generation
	// invalidates handles opened before the crash — the remount is
	// replayable, applications reopen.
	crashed bool
	crashes uint64

	steps    cacherun.Steps[*sim.Mutex]     // the request runs' step table
	wb       cacherun.Writeback[*sim.Mutex] // and the write-back's
	requests []*request                     // recycled syscall request runs
}

// fileState is a file's page-cache state; X is its inode mutex.
type fileState = cache.File[*sim.Mutex]

// Mount attaches a store to the kernel page cache and registers it for
// writeback.
func (k *Kernel) Mount(store Store, cfg MountConfig) *Mount {
	if cfg.MemLimit <= 0 {
		cfg.MemLimit = 1 << 62
	}
	if cfg.MaxDirty <= 0 {
		cfg.MaxDirty = cfg.MemLimit / 2
	}
	if cfg.Tenant == "" {
		cfg.Tenant = cfg.Name
	}
	meter := cfg.Meter
	if meter == nil {
		meter = memacct.NewMeter(cfg.Name + ".pagecache")
	}
	m := &Mount{
		kern:      k,
		store:     store,
		cfg:       cfg,
		cache:     cache.New[*sim.Mutex](meter, cfg.MemLimit),
		bgThresh:  max(cfg.MaxDirty/2, 1),
		throttleQ: sim.NewWaitQueue(k.eng, cfg.Name+".throttle"),
		fetchQ:    sim.NewWaitQueue(k.eng, cfg.Name+".fetch"),
	}
	// The kernel's request runs: the page lock is per page, so claims
	// and releases take no lock; inserts and evictions take lru_lock
	// and hold it per page; a crash check costs a system call's VFS
	// work; a kernel Ceph client's object reads block, retrying the
	// primary through the least-degraded routing.
	lru := cacherun.Lock{M: k.lruLock, Name: "lru_lock"}
	m.steps = cacherun.Steps[*sim.Mutex]{
		Cache: m.cache, Params: k.params, FetchQ: m.fetchQ, ThrottleQ: m.throttleQ,
		Insert: lru, Evict: lru, PageHold: cpu.Charge(cpu.Kernel, k.params.LRULockHoldPerPage), StaleEnds: true,
		Crash: cpu.Charge(cpu.Kernel, k.params.VFSOpCost), PrimaryRetries: true, OverDirty: m.overDirty,
	}
	if cs, ok := store.(*CephStore); ok {
		m.steps.Retry, m.steps.Wire, m.steps.Names = cs.retry, cs.message, &cs.Names
	}
	// Its write-back: a flusher marks its file Flushing and pops under
	// wb_lock traced, a drain untraced (OBSERVABILITY.md records the gap).
	pop := cacherun.Lock{M: k.writebackLock, Name: "wb_lock", Hold: cpu.Charge(cpu.Kernel, k.params.WritebackLockHold)}
	m.wb = cacherun.Writeback[*sim.Mutex]{Steps: &m.steps, Store: (*writeback)(m), Crashed: &m.crashed,
		Background: m.bgThreshold, Rec: &k.rec, Tenant: cfg.Tenant, MarkFlushing: true, FlushPop: pop, DrainPop: pop}
	m.wb.DrainPop.Name = ""
	k.mounts = append(k.mounts, m)
	return m
}

// maxDirty and bgThreshold are the effective hard and background dirty
// thresholds (see Kernel.tightened).
func (m *Mount) maxDirty() int64    { return m.kern.tightened(m.cfg.MaxDirty) }
func (m *Mount) bgThreshold() int64 { return m.kern.tightened(m.bgThresh) }

// raWindow is the effective readahead window: zero in brownout —
// speculative fetches are the first work to defer when the backend or
// the admission queues are struggling.
func (m *Mount) raWindow() int64 {
	if m.kern.brownout > 0 {
		return 0
	}
	return cache.MaxReadahead
}

// Meter returns the mount's page-cache memory meter.
func (m *Mount) Meter() *memacct.Meter { return m.cache.Meter }

// DirtyBytes returns the bytes awaiting writeback.
func (m *Mount) DirtyBytes() int64 { return m.cache.DirtyBytes }

// Store returns the backing store.
func (m *Mount) Store() Store { return m.store }

// file returns ino's page-cache state, giving a new entry its inode
// mutex.
func (m *Mount) file(ino uint64, size int64) *fileState {
	f, created := m.cache.File(ino, size)
	if created {
		f.X = m.kern.newInodeLock()
	}
	return f
}

// mark records [off,off+n) of f dirty under wb_lock, which it releases,
// and wakes the flushers past the background threshold. A stale
// fileState from before a crash is not accounted: mark reports false.
func (m *Mount) mark(p *sim.Proc, f *fileState, off, n int64) bool {
	k := m.kern
	if m.cache.Stale(f) {
		k.writebackLock.Unlock(p)
		return false
	}
	m.cache.MarkDirty(f, off, n, k.eng.Now())
	k.writebackLock.Unlock(p)
	if m.cache.DirtyBytes >= m.bgThreshold() {
		k.wakeFlushers()
	}
	return true
}

// dirtyPause is balance_dirty_pages' pause for a writer of n bytes:
// between the background and hard thresholds a writer is paced to the
// mount's achieved flush rate, with the pause ramping up quadratically
// as dirty data approaches the limit. A collapsing flush rate (flushers
// starved of cores by a noisy neighbour) therefore translates directly
// into writer slowdown.
func (m *Mount) dirtyPause(n int64) time.Duration {
	over := m.cache.DirtyBytes - m.bgThreshold()
	if !(over > 0 && m.flushRate > 0) {
		return 0
	}
	span := m.maxDirty() - m.bgThreshold()
	if span < 1 {
		span = 1
	}
	ramp := float64(over) / float64(span)
	if ramp > 1 {
		ramp = 1
	}
	pause := time.Duration(float64(n) / m.flushRate * ramp * ramp * float64(time.Second))
	return min(pause, 200*time.Millisecond)
}

// overDirty reports whether a writer must wait at the hard dirty limit.
// Teardown safety: with the flushers stopped nobody can lower the dirty
// level, so writers must not spin on the threshold.
func (m *Mount) overDirty() bool {
	return m.cache.DirtyBytes >= m.maxDirty() && !m.kern.stopped && !m.crashed
}

// writeback is a Mount as its write-back's cacherun.Store.
type writeback Mount

// Prepare holds the inode mutex while the flusher prepares the batch
// (page scanning and submission CPU): the i_mutex delays of the
// paper's kernel profiling. The store transfer runs under page locks.
func (w *writeback) Prepare(ctx vfsapi.Ctx, f *fileState, n int64) {
	ctx.T.LockedChain(ctx.P, f.X, ctx.Span, "i_mutex", cpu.Charge(cpu.Kernel, model.RateTime(n, w.kern.params.FlusherBytesPerSec)))
	f.X.Unlock(ctx.P)
}

func (w *writeback) StoreExtent(ctx vfsapi.Ctx, f *fileState, e extent.Extent) error {
	w.store.WriteData(ctx, f.Ino, e.Off, e.Len)
	return nil
}

// Flushed folds a stored batch into the EWMA of the flush rate.
func (w *writeback) Flushed(total, _ int64, err error) {
	if err != nil {
		return
	}
	now := w.kern.eng.Now()
	if w.lastFlushDone > 0 && now > w.lastFlushDone {
		inst := float64(total) / (now - w.lastFlushDone).Seconds()
		if w.flushRate == 0 {
			w.flushRate = inst
		} else {
			w.flushRate = 0.8*w.flushRate + 0.2*inst
		}
	}
	w.lastFlushDone = now
}

// PushSize sets f's size in the store; an unlinked file's goes nowhere.
func (w *writeback) PushSize(ctx vfsapi.Ctx, f *fileState) {
	if !f.Unlinked {
		w.store.SetSize(ctx, f.Ino, f.Size)
	}
}

// SyncAll flushes every dirty file and its size to the store, the
// quiesce step of container migration.
func (m *Mount) SyncAll(ctx vfsapi.Ctx) { m.wb.SyncAll(ctx) }

// Crash models the kernel client dying (for the kernel Ceph mount this
// is effectively a host crash: there is no way to kill the in-kernel
// client without taking the node down). The mount's entire in-memory
// state — page cache, dirty tracking, open-file table — is discarded:
// un-synced dirty data is lost and only store-acknowledged bytes
// survive, every open handle is invalidated via the generation counter,
// and subsequent operations fail with vfsapi.ErrCrashed until Restart.
// It runs outside simulated time: the crash is an external event, not
// work performed by any thread.
func (m *Mount) Crash() {
	m.crashed = true
	m.crashes++
	m.cache.Crash(true)
	m.flushRate = 0
	if c, ok := m.store.(storeCrasher); ok {
		c.CrashStore()
	}
	m.throttleQ.Broadcast()
	m.fetchQ.Broadcast()
}

// Restart remounts after Crash. The cache stays cold (the file table
// was dropped with the crash), and a store with its own recovery
// protocol — the kernel Ceph client's MDS session reclaim — runs it
// before the mount serves traffic. Pre-crash handles keep failing with
// vfsapi.ErrCrashed: recovery restores the mount, not open files.
func (m *Mount) Restart(ctx vfsapi.Ctx) error {
	if !m.crashed {
		return nil
	}
	if c, ok := m.store.(storeCrasher); ok {
		if err := c.RestartStore(ctx); err != nil {
			return err
		}
	}
	m.crashed = false
	return nil
}

// Crashes counts Crash calls on this mount.
func (m *Mount) Crashes() uint64 { return m.crashes }

// storeCrasher is implemented by stores that hold their own client
// state (the kernel Ceph client): CrashStore discards it with the
// crash, RestartStore runs the store's recovery protocol on remount.
type storeCrasher interface {
	CrashStore()
	RestartStore(ctx vfsapi.Ctx) error
}

// dropCache removes all residency and dirty state of f (unlink,
// truncate) under lru_lock, with no per-page hold, and wakes throttled
// writers if it discarded dirty pages.
func (m *Mount) dropCache(ctx vfsapi.Ctx, f *fileState) {
	lru := m.kern.lruLock
	ctx.T.LockedChain(ctx.P, lru, ctx.Span, "lru_lock")
	dirty := m.cache.Drop(f)
	lru.Unlock(ctx.P)
	if dirty > 0 {
		m.throttleQ.Broadcast()
	}
}
