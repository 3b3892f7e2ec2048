// Package cephclient implements the user-level Ceph filesystem client
// (the libcephfs-like libservice): an object cache for data and
// metadata in user memory, dirty thresholds with user-level flusher
// threads, and the coarse global client_lock whose serialization caps
// cached-read concurrency (§6.3.2 of the paper).
//
// The same client backs both ceph-fuse (configurations F, FP — reached
// through the FUSE transport) and Danaus (configuration D — reached
// through shared-memory IPC or direct function calls from the union
// libservice).
package cephclient

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/memacct"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Config configures one client instance.
type Config struct {
	// Name identifies the client in diagnostics.
	Name string
	// CacheLimit bounds the user-level object cache (the paper sets it
	// to 50% of the pool memory).
	CacheLimit int64
	// MaxDirty is the dirty throttle threshold; defaults to 50% of the
	// cache limit (the paper's setting).
	MaxDirty int64
	// Mask pins the client's threads (service and flushers) to the
	// pool's reserved cores. Zero means unpinned.
	Mask cpu.Mask
	// Acct attributes the client's CPU consumption.
	Acct *cpu.Account
	// Meter attributes the client's cache memory; optional.
	Meter *memacct.Meter
	// Flushers is the number of user-level writeback threads
	// (default 1).
	Flushers int
	// Tenant is the pool the client serves, used to tag flusher
	// writeback spans with their originating tenant. Defaults to Name.
	Tenant string
	// Obs, when non-nil, records flusher writeback spans and
	// per-tenant client_lock wait attribution.
	Obs *obs.Recorder
	// Breaker, when non-nil, enables the per-backend circuit breaker
	// and observes each of its state transitions: reads fail fast while
	// it is open, writeback holds off until the next probe time. Its
	// thresholds come from model.Params. Nil (the default) keeps the
	// plain retry loop.
	Breaker func(from, to cluster.BreakerState)
	// RetrySeed seeds the client's deterministic jitter stream (retry
	// backoff and breaker open intervals). Zero picks a fixed default,
	// so identical configurations replay identically.
	RetrySeed uint64
}

// Client is a user-level Ceph client. It implements vfsapi.FileSystem.
type Client struct {
	eng    *sim.Engine
	cpus   *cpu.CPU
	params *model.Params
	clus   *cluster.Cluster
	cfg    Config

	// clientLock is libcephfs's global lock: held for every cache and
	// metadata manipulation and for part of each data copy.
	clientLock *sim.Mutex

	// cache is the object cache's ledger, guarded by clientLock.
	cache *cache.Cache[revocation]
	attrs map[string]attrEntry
	paths map[uint64]string

	// CacheStats counts data-path cache behaviour.
	stats CacheStats
	// retry runs backend data operations through replica failover,
	// jittered backoff and the optional breaker, counting faults.
	retry     *cluster.Retrier
	throttleQ *sim.WaitQueue
	flushQ    *sim.WaitQueue
	fetchQ    *sim.WaitQueue // readers waiting on in-flight fetches
	stopped   bool
	crashed   bool
	threads   []*cpu.Thread // the client's own threads, for repinning

	crashes uint64
}

type attrEntry struct {
	info vfsapi.FileInfo
	ino  uint64
}

// cfile is a file's object-cache state.
type cfile = cache.File[revocation]

// revocation is a cfile's one client-specific mark.
type revocation struct {
	revoked bool // dropped by RevokeCaps; a writer must recap
}

// New creates a client and starts its flusher threads.
func New(eng *sim.Engine, cpus *cpu.CPU, params *model.Params, clus *cluster.Cluster, cfg Config) *Client {
	if cfg.CacheLimit <= 0 {
		cfg.CacheLimit = 1 << 62
	}
	if cfg.MaxDirty <= 0 {
		cfg.MaxDirty = cfg.CacheLimit / 2
	}
	if cfg.Acct == nil {
		cfg.Acct = cpu.NewAccount(cfg.Name)
	}
	if cfg.Flushers <= 0 {
		cfg.Flushers = 1
	}
	if cfg.Tenant == "" {
		cfg.Tenant = cfg.Name
	}
	meter := cfg.Meter
	if meter == nil {
		meter = memacct.NewMeter(cfg.Name + ".ulcc")
	}
	c := &Client{
		eng:        eng,
		cpus:       cpus,
		params:     params,
		clus:       clus,
		cfg:        cfg,
		clientLock: sim.NewMutex(eng, cfg.Name+".client_lock"),
		cache:      cache.New[revocation](meter, cfg.CacheLimit),
		attrs:      map[string]attrEntry{},
		paths:      map[uint64]string{},
		throttleQ:  sim.NewWaitQueue(eng, cfg.Name+".throttle"),
		flushQ:     sim.NewWaitQueue(eng, cfg.Name+".flush"),
		fetchQ:     sim.NewWaitQueue(eng, cfg.Name+".fetch"),
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = 0x6a09e667f3bcc909 // fixed default: replayable without configuration
	}
	c.retry = clus.NewRetrier(&c.crashed, &c.stopped, seed, cfg.Breaker)
	clus.OpenSession(cfg.Name, c)
	for i := 0; i < cfg.Flushers; i++ {
		eng.Go(cfg.Name+".flusher", func(p *sim.Proc) { c.flusherLoop(p) })
	}
	return c
}

// Stop terminates the flusher threads so the engine can drain, and
// releases any writer still parked on the dirty threshold.
func (c *Client) Stop() {
	c.stopped = true
	c.flushQ.Broadcast()
	c.throttleQ.Broadcast()
}

// Repin moves the client's service threads to a new core mask — the
// §9 dynamic reallocation of underutilized resources: a tenant's
// reservation can grow or shrink at runtime without remounting.
func (c *Client) Repin(mask cpu.Mask) {
	c.cfg.Mask = mask
	for _, th := range c.threads {
		th.SetAffinity(mask)
	}
}

// Crash simulates the failure of this filesystem service: every cached
// and dirty byte is lost, the service threads die, and subsequent
// operations fail with ErrCrashed. Per the paper's fault-containment
// analysis (§5), the blast radius is exactly this client: data already
// flushed to the storage backend survives, and other pools' services
// are untouched. Per the consistency discussion (§3.4), unflushed
// writes are lost and applications must repeat unacknowledged requests.
func (c *Client) Crash() {
	c.crashed = true
	c.crashes++
	c.cache.Crash(false)
	c.attrs = map[string]attrEntry{}
	c.paths = map[uint64]string{}
	c.Stop()
}

// Restart runs the crash-recovery protocol: reclaim the MDS session
// (which fences the dead incarnation's capabilities and issues a fresh
// epoch), then resume service with a cold cache and fresh flusher
// threads. Handles opened before the crash stay stale — applications
// must reopen, the replayable-remount contract. ctx must carry a live
// process for the session round trip.
func (c *Client) Restart(ctx vfsapi.Ctx) error {
	if !c.crashed {
		return nil
	}
	if _, err := c.clus.ReclaimSession(ctx, c.cfg.Name); err != nil {
		return err
	}
	c.crashed = false
	c.stopped = false
	for i := 0; i < c.cfg.Flushers; i++ {
		c.eng.Go(c.cfg.Name+".flusher", func(p *sim.Proc) { c.flusherLoop(p) })
	}
	return nil
}

// Crashed reports whether the service has failed.
func (c *Client) Crashed() bool { return c.crashed }

// Crashes counts crash events since the client was built.
func (c *Client) Crashes() uint64 { return c.crashes }

// failIfCrashed is checked on the entry of every operation.
func (c *Client) failIfCrashed(ctx vfsapi.Ctx) error {
	if c.crashed {
		// A failed call still burns an operation's worth of CPU —
		// charging it keeps erroring retry loops moving in simulated
		// time instead of spinning at one virtual instant.
		c.opCPU(ctx)
		return ErrCrashed
	}
	return nil
}

// Meter returns the client cache memory meter.
func (c *Client) Meter() *memacct.Meter { return c.cache.Meter }

// Account returns the client's CPU account.
func (c *Client) Account() *cpu.Account { return c.cfg.Acct }

// ClientLock exposes the global lock for contention inspection.
func (c *Client) ClientLock() *sim.Mutex { return c.clientLock }

// DirtyBytes returns bytes awaiting writeback.
func (c *Client) DirtyBytes() int64 { return c.cache.DirtyBytes }

// CacheStats aggregates data-path cache behaviour of a client.
type CacheStats struct {
	// ReadBytes is the total bytes served to readers.
	ReadBytes int64
	// MissBytes is the portion fetched from the backend.
	MissBytes int64
	// WriteBytes is the total bytes written through the cache.
	WriteBytes int64
	// FlushedBytes is the dirty data written back to the backend.
	FlushedBytes int64
}

// HitRatio returns the fraction of read bytes served from the cache.
func (s CacheStats) HitRatio() float64 {
	if s.ReadBytes == 0 {
		return 0
	}
	return 1 - float64(s.MissBytes)/float64(s.ReadBytes)
}

// Stats returns a snapshot of the client's cache statistics.
func (c *Client) Stats() CacheStats { return c.stats }

// FaultStats returns a snapshot of the client's fault-handling
// counters.
func (c *Client) FaultStats() metrics.FaultCounters { return c.retry.Faults }

// BreakerStats returns the circuit-breaker counters (zero when the
// breaker is disabled).
func (c *Client) BreakerStats() cluster.BreakerStats { return c.retry.BreakerStats() }

// readBackend fetches [off, off+n) of ino with the client's bounded
// retry policy: the first attempt follows the cluster's degraded-aware
// routing; retries cycle through the replication group until the
// per-op deadline or the retry budget runs out, at which point the op
// fails with vfsapi.ErrIO (see cluster.Retrier.Do).
func (c *Client) readBackend(ctx vfsapi.Ctx, ino uint64, off, n int64) error {
	return c.retry.Do(ctx, true, func(try, member int) error {
		if try == 0 {
			return c.clus.Read(ctx, ino, off, n)
		}
		return c.clus.ReadReplica(ctx, ino, off, n, member)
	})
}

// writePersist stores [off, off+n) of ino durably, retrying until it
// lands: writeback must not drop data the application already handed
// over, so unlike reads it blocks — each attempt advances the acting
// primary through the replication group. It aborts only when the
// client is stopped or crashed or the error is not a transient fault.
func (c *Client) writePersist(ctx vfsapi.Ctx, ino uint64, off, n int64) error {
	return c.retry.Do(ctx, false, func(_, member int) error {
		return c.clus.WriteReplica(ctx, ino, off, n, member)
	})
}

// opCPU charges the fixed user-level cost of one client operation.
func (c *Client) opCPU(ctx vfsapi.Ctx) {
	ctx.T.Exec(ctx.P, cpu.User, c.params.ClientOpCost)
}

// lockedMeta runs fn holding client_lock with the standard hold charge,
// attributing any lock wait to the tenant of the traced request in
// flight (no-op attribution otherwise).
func (c *Client) lockedMeta(ctx vfsapi.Ctx, fn func()) {
	ctx.T.LockedChain(ctx.P, c.clientLock, ctx.Span, "client_lock", cpu.Charge(cpu.User, c.params.ClientLockHold))
	fn()
	c.clientLock.Unlock(ctx.P)
}

// wire charges the client-side costs of moving n bytes on the network:
// socket syscalls (kernel mode on the caller's cores), protocol CPU,
// and the user-level message checksum.
func (c *Client) wire(ctx vfsapi.Ctx, n int64) {
	ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(),
		cpu.Charge(cpu.Kernel, c.params.NetOpCost),
		cpu.Charge(cpu.Kernel, model.RateTime(n, c.params.NetCPUBytesPerSec)),
		ctx.T.ModeSwitchStep(),
		cpu.Charge(cpu.User, model.RateTime(n, c.params.ChecksumBytesPerSec)))
}

// copyData charges a data copy of n bytes, a fraction of it while
// holding client_lock. The read path holds the lock for most of the
// copy (buffer-head lookup and read completion run under it — the
// concurrency cap of §6.3.2), while buffered writes release it early.
func (c *Client) copyData(ctx vfsapi.Ctx, n int64, write bool) {
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

// cacheInsert adds residency and evicts cold clean data over the limit.
// Caller must NOT hold client_lock.
func (c *Client) cacheInsert(ctx vfsapi.Ctx, f *cfile, off, n int64) {
	c.lockedMeta(ctx, func() { c.cache.Insert(f, off, n) })
	if c.cache.Over() {
		c.lockedMeta(ctx, func() { c.cache.Evict() })
	}
}

// markDirty records a buffered write and throttles the writer above
// the dirty limit. It reports false, recording nothing, when RevokeCaps
// dropped f first: the writer must recap and retry on a current cfile.
func (c *Client) markDirty(ctx vfsapi.Ctx, f *cfile, off, n int64) bool {
	revoked := false
	c.lockedMeta(ctx, func() {
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
	// The stopped check makes teardown safe: once the client's flusher
	// threads have been stopped nobody can lower the dirty level, so a
	// straggling writer must not spin on the threshold.
	for c.cache.DirtyBytes >= c.cfg.MaxDirty && !c.stopped {
		start := c.eng.Now()
		c.throttleQ.WaitTimeout(ctx.P, c.params.DirtyThrottleCheck)
		ctx.T.Account().AddIOWait(c.eng.Now() - start)
	}
	return true
}

// flusherLoop is a user-level writeback thread pinned to the pool's
// cores: Danaus flushes with the tenant's own reserved resources.
func (c *Client) flusherLoop(p *sim.Proc) {
	th := c.cpus.NewThread(c.cfg.Acct, c.cfg.Mask)
	c.threads = append(c.threads, th)
	ctx := vfsapi.Ctx{P: p, T: th}
	for !c.stopped {
		c.flushQ.WaitTimeout(p, c.params.WritebackInterval)
		if c.stopped {
			return
		}
		c.flushPass(ctx)
	}
}

func (c *Client) flushPass(ctx vfsapi.Ctx) {
	const batch = 1 << 20
	// The writeback span is opened lazily on the first dirty file;
	// unlike the kernel flusher (which serves every mount on the host),
	// the user-level flusher only ever works for its own pool — the
	// tenant tag makes that containment visible in the trace.
	var sp *obs.Span
	var sc obs.Scope
	var passTotal int64
	defer func() {
		sc.Exit()
		sp.End(passTotal, nil)
	}()
	for {
		now := c.eng.Now()
		needed := c.cache.DirtyBytes >= c.cfg.MaxDirty/2 ||
			(c.cache.DirtyBytes > 0 && now-c.cache.OldestDirty >= c.params.DirtyExpire)
		if !needed {
			return
		}
		f := c.cache.NextDirty()
		if f == nil {
			return
		}
		if sp == nil && c.cfg.Obs != nil {
			sp = c.cfg.Obs.StartSpan(ctx.P.ID(), c.cfg.Tenant, "writeback")
			sc = sp.Enter(obs.LayerWriteback)
			ctx.Span = sp
		}
		var exts []extent.Extent
		c.lockedMeta(ctx, func() { exts = f.Dirty.PopFirst(batch) })
		var total int64
		for _, e := range exts {
			total += e.Len
			if !f.Unlinked {
				c.wire(ctx, e.Len)
				c.writePersist(ctx, f.Ino, e.Off, e.Len)
				c.stats.FlushedBytes += e.Len
			}
		}
		if c.crashed {
			// Crashed mid-flush: the crash reset the dirty accounting
			// wholesale, so this pass must not decrement it again.
			return
		}
		passTotal += total
		c.cache.DirtyBytes -= total
		if f.Dirty.Len() == 0 {
			c.cache.Unlist(f)
			if !f.Unlinked {
				c.pushSize(ctx, f)
			}
		}
		c.throttleQ.Broadcast()
	}
}

// pushSize propagates the client's size view to the MDS.
func (c *Client) pushSize(ctx vfsapi.Ctx, f *cfile) {
	path, ok := c.paths[f.Ino]
	if !ok {
		return
	}
	c.wire(ctx, 256)
	c.clus.MetaSetSize(ctx, path, f.Size)
	if e, ok := c.attrs[path]; ok {
		if f.Size > e.info.Size {
			e.info.Size = f.Size
			c.attrs[path] = e
		}
	}
}

// RevokeCaps implements cluster.CapHolder: another client wants
// conflicting access to ino, so this client flushes the file's dirty
// data, pushes its size, and drops every cached byte and attribute for
// it. The next access re-fetches fresh state from the backend.
func (c *Client) RevokeCaps(ctx vfsapi.Ctx, ino uint64) {
	f, ok := c.cache.Lookup(ino)
	if !ok {
		if path, ok2 := c.paths[ino]; ok2 {
			delete(c.attrs, path)
		}
		return
	}
	if !c.drain(ctx, f) {
		return
	}
	c.lockedMeta(ctx, func() {
		c.dropCache(f)
		f.X.revoked = true
	})
	if path, ok := c.paths[ino]; ok {
		delete(c.attrs, path)
	}
	c.cache.Forget(ino)
	c.clus.ReleaseCaps(ino, c)
}

// SyncAll synchronously flushes every dirty file and pushes its size
// to the MDS — the quiesce step of container migration (§9): after
// SyncAll the container state is fully visible through the shared
// filesystem from any other client.
func (c *Client) SyncAll(ctx vfsapi.Ctx) {
	for f := c.cache.NextDirty(); f != nil; f = c.cache.NextDirty() {
		if !c.drain(ctx, f) {
			return
		}
	}
}

// drain writes all of f's dirty data back, 4 MiB per client_lock hold,
// then takes f off the dirty list, pushes its size and wakes throttled
// writers. It reports false, stopping at once, if the client crashed
// meanwhile: the crash already reset the dirty accounting.
func (c *Client) drain(ctx vfsapi.Ctx, f *cfile) bool {
	for f.Dirty.Len() > 0 {
		var exts []extent.Extent
		c.lockedMeta(ctx, func() { exts = f.Dirty.PopFirst(4 << 20) })
		var total int64
		for _, e := range exts {
			c.wire(ctx, e.Len)
			c.writePersist(ctx, f.Ino, e.Off, e.Len)
			total += e.Len
		}
		if c.crashed {
			return false
		}
		c.cache.DirtyBytes -= total
	}
	c.cache.Unlist(f)
	c.pushSize(ctx, f)
	c.throttleQ.Broadcast()
	return true
}

// dropCache discards f's cached and dirty data. Caller holds
// client_lock.
func (c *Client) dropCache(f *cfile) {
	if c.cache.Drop(f) > 0 {
		c.throttleQ.Broadcast()
	}
}
