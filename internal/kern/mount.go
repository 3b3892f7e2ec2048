package kern

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memacct"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Store is the backing of a kernel mount: the local disk filesystem or
// the kernel Ceph client's network path. Data calls block for the
// device or network time they imply.
type Store interface {
	Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error)
	Create(ctx vfsapi.Ctx, path string) (uint64, error)
	Mkdir(ctx vfsapi.Ctx, path string) error
	Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error)
	Unlink(ctx vfsapi.Ctx, path string) (uint64, error)
	Rmdir(ctx vfsapi.Ctx, path string) error
	Rename(ctx vfsapi.Ctx, oldPath, newPath string) error
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
		bgThresh:  cfg.MaxDirty / 2,
		throttleQ: sim.NewWaitQueue(k.eng, cfg.Name+".throttle"),
		fetchQ:    sim.NewWaitQueue(k.eng, cfg.Name+".fetch"),
	}
	if m.bgThresh == 0 {
		m.bgThresh = 1
	}
	k.mounts = append(k.mounts, m)
	return m
}

// maxDirty is the effective hard dirty threshold: the configured limit
// normally, a quarter of it (at least one byte) in brownout, so an
// overloaded backend accumulates a quarter of the buffered state.
func (m *Mount) maxDirty() int64 {
	if m.kern.brownout > 0 {
		if v := m.cfg.MaxDirty / 4; v > 1 {
			return v
		}
		return 1
	}
	return m.cfg.MaxDirty
}

// bgThreshold is the effective background writeback threshold,
// tightened like maxDirty in brownout so flushers start draining early.
func (m *Mount) bgThreshold() int64 {
	if m.kern.brownout > 0 {
		if v := m.bgThresh / 4; v > 1 {
			return v
		}
		return 1
	}
	return m.bgThresh
}

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

// withLRU runs fn under the global lru_lock. Flag and list updates
// charge no per-page hold; page insertion and reclaim charge their own.
func (m *Mount) withLRU(ctx vfsapi.Ctx, fn func()) {
	k := m.kern
	k.lockSpan(ctx, k.lruLock, "lru_lock")
	fn()
	k.lruLock.Unlock(ctx.P)
}

// cacheInsert adds [off,off+n) to f's resident set, evicting cold clean
// pages if the mount exceeds its memory limit. The per-page lock hold
// is charged only for pages actually added: rewriting already-resident
// pages does not touch the LRU lists.
func (m *Mount) cacheInsert(ctx vfsapi.Ctx, f *fileState, off, n int64) {
	k := m.kern
	k.lockSpan(ctx, k.lruLock, "lru_lock")
	if m.cache.Stale(f) {
		k.lruLock.Unlock(ctx.P)
		return // stale fileState from before a crash: not accounted
	}
	added := m.cache.Insert(f, off, n)
	if hold := time.Duration(k.params.Pages(added)) * k.params.LRULockHoldPerPage; hold > 0 {
		ctx.T.Exec(ctx.P, cpu.Kernel, hold)
	}
	k.lruLock.Unlock(ctx.P)
	if m.cache.Over() {
		m.evict(ctx)
	}
}

// evict reclaims clean pages from the coldest files until the mount is
// below its limit watermark.
func (m *Mount) evict(ctx vfsapi.Ctx) {
	var freed int64
	m.withLRU(ctx, func() { freed = m.cache.Evict() })
	if freed > 0 {
		// Page-structure work for the reclaimed pages.
		hold := time.Duration(m.kern.params.Pages(freed)) * m.kern.params.LRULockHoldPerPage
		ctx.T.Exec(ctx.P, cpu.Kernel, hold)
	}
}

// markDirty records freshly written bytes and applies dirty throttling:
// a writer that pushes the mount past MaxDirty blocks (as I/O wait)
// until the flushers bring it back down.
func (m *Mount) markDirty(ctx vfsapi.Ctx, f *fileState, off, n int64) {
	k := m.kern
	k.lockSpan(ctx, k.writebackLock, "wb_lock")
	ctx.T.Exec(ctx.P, cpu.Kernel, k.params.WritebackLockHold)
	if m.cache.Stale(f) {
		k.writebackLock.Unlock(ctx.P)
		return // stale fileState from before a crash: not accounted
	}
	m.cache.MarkDirty(f, off, n, k.eng.Now())
	k.writebackLock.Unlock(ctx.P)

	if m.cache.DirtyBytes >= m.bgThreshold() {
		k.wakeFlushers()
	}
	// balance_dirty_pages: between the background and hard thresholds a
	// writer is paced to the mount's achieved flush rate, with the pause
	// ramping up quadratically as dirty data approaches the limit. A
	// collapsing flush rate (flushers starved of cores by a noisy
	// neighbour) therefore translates directly into writer slowdown.
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
			start := k.eng.Now()
			m.throttleQ.WaitTimeout(ctx.P, pause)
			ctx.T.Account().AddIOWait(k.eng.Now() - start)
		}
	}
	// Teardown safety: with the flushers stopped nobody can lower the
	// dirty level, so writers must not spin on the threshold.
	for m.cache.DirtyBytes >= m.maxDirty() && !k.stopped && !m.crashed {
		start := k.eng.Now()
		m.throttleQ.WaitTimeout(ctx.P, k.params.DirtyThrottleCheck)
		ctx.T.Account().AddIOWait(k.eng.Now() - start)
	}
}

// flushPass drains the mount toward its background threshold (and past
// the expire age), running on a flusher's roaming thread. It reports
// whether it flushed anything, so idle flushers back off instead of
// re-picking a mount whose dirty files are all claimed.
func (m *Mount) flushPass(ctx vfsapi.Ctx) bool {
	k := m.kern
	const batch = 1 << 20
	progressed := false
	// The writeback span is opened lazily on the first dirty file and
	// tagged with the mount's tenant: the flusher runs on the kernel's
	// account, but the work — and the cores and locks it consumes — is
	// attributed to the pool whose dirty data recruited it.
	var sp *obs.Span
	var sc obs.Scope
	var passTotal int64
	for {
		now := k.eng.Now()
		needed := m.cache.DirtyBytes >= m.bgThreshold() ||
			(m.cache.DirtyBytes > 0 && now-m.cache.OldestDirty >= k.params.DirtyExpire)
		if !needed {
			break
		}
		f := m.cache.NextDirty()
		if f == nil {
			break
		}
		if sp == nil && k.rec != nil {
			sp = k.rec.StartSpan(ctx.P.ID(), m.cfg.Tenant, "writeback")
			sc = sp.Enter(obs.LayerWriteback)
			ctx.Span = sp
		}
		progressed = true
		f.Flushing = true
		k.lockSpan(ctx, k.writebackLock, "wb_lock")
		ctx.T.Exec(ctx.P, cpu.Kernel, k.params.WritebackLockHold)
		exts := f.Dirty.PopFirst(batch)
		k.writebackLock.Unlock(ctx.P)

		var total int64
		for _, e := range exts {
			total += e.Len
		}
		// The inode mutex is held while the flusher prepares the batch
		// (page scanning and submission CPU), serializing the
		// application's writes to this file against flusher progress —
		// the i_mutex delays the paper's kernel profiling identified.
		// The store transfer itself proceeds under page locks only.
		k.lockSpan(ctx, f.X, "i_mutex")
		ctx.T.ExecBytes(ctx.P, cpu.Kernel, total, k.params.FlusherBytesPerSec)
		f.X.Unlock(ctx.P)
		for _, e := range exts {
			if !f.Unlinked {
				m.store.WriteData(ctx, f.Ino, e.Off, e.Len)
			}
		}
		f.Flushing = false
		if m.crashed {
			// The crash already zeroed the dirty accounting; subtracting
			// this batch again would drive it negative.
			break
		}
		passTotal += total
		m.updateFlushRate(total)
		m.cache.DirtyBytes -= total
		if f.Dirty.Len() == 0 {
			m.cache.Unlist(f)
			if !f.Unlinked {
				m.store.SetSize(ctx, f.Ino, f.Size)
			}
		}
		m.throttleQ.Broadcast()
	}
	sc.Exit()
	sp.End(passTotal, nil)
	m.flushing--
	return progressed
}

// updateFlushRate folds a completed batch into the pacing EWMA.
func (m *Mount) updateFlushRate(total int64) {
	now := m.kern.eng.Now()
	if m.lastFlushDone > 0 && now > m.lastFlushDone {
		inst := float64(total) / (now - m.lastFlushDone).Seconds()
		if m.flushRate == 0 {
			m.flushRate = inst
		} else {
			m.flushRate = 0.8*m.flushRate + 0.2*inst
		}
	}
	m.lastFlushDone = now
}

// SyncAll synchronously flushes every dirty file to the store and
// propagates sizes (used when quiescing a mount, e.g. for container
// migration).
func (m *Mount) SyncAll(ctx vfsapi.Ctx) {
	for {
		if m.crashed {
			return
		}
		f := m.cache.NextDirty()
		if f == nil {
			return
		}
		for f.Dirty.Len() > 0 {
			exts := f.Dirty.PopFirst(4 << 20)
			var total int64
			for _, e := range exts {
				if !f.Unlinked {
					m.store.WriteData(ctx, f.Ino, e.Off, e.Len)
				}
				total += e.Len
			}
			if m.crashed {
				return
			}
			m.cache.DirtyBytes -= total
		}
		m.cache.Unlist(f)
		if !f.Unlinked {
			m.store.SetSize(ctx, f.Ino, f.Size)
		}
		m.throttleQ.Broadcast()
	}
}

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

// Crashed reports whether the mount is down.
func (m *Mount) Crashed() bool { return m.crashed }

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
// truncate), waking throttled writers if it discarded dirty pages.
func (m *Mount) dropCache(ctx vfsapi.Ctx, f *fileState) {
	var dirty int64
	m.withLRU(ctx, func() { dirty = m.cache.Drop(f) })
	if dirty > 0 {
		m.throttleQ.Broadcast()
	}
}
