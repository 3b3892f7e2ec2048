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
	"repro/internal/cacherun"
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

	// cache is the object cache's ledger, guarded by clientLock, and
	// names the namespace path with its attribute/dentry cache.
	cache *cache.Cache[revocation]
	names cacherun.Names

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

	// steps is the request runs' step table and wb the write-back's;
	// requests pools the run states of Opens, Reads, Writes and Closes.
	steps    cacherun.Steps[revocation]
	wb       cacherun.Writeback[revocation]
	requests []*request
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
		throttleQ:  sim.NewWaitQueue(eng, cfg.Name+".throttle"),
		flushQ:     sim.NewWaitQueue(eng, cfg.Name+".flush"),
		fetchQ:     sim.NewWaitQueue(eng, cfg.Name+".fetch"),
	}
	seed := cfg.RetrySeed
	if seed == 0 {
		seed = 0x6a09e667f3bcc909 // fixed default: replayable without configuration
	}
	c.retry = clus.NewRetrier(&c.crashed, &c.stopped, seed, cfg.Breaker)
	// The user-level client's request runs: every ledger step holds
	// client_lock for one hold charge; a crash check costs an
	// operation's CPU; object reads are bounded and retry pinned
	// members.
	locked := cacherun.Lock{M: c.clientLock, Name: "client_lock", Hold: c.holdStep()}
	c.steps = cacherun.Steps[revocation]{
		Cache: c.cache, Params: params, FetchQ: c.fetchQ, ThrottleQ: c.throttleQ,
		Claim: locked, Release: locked, Insert: locked, Evict: locked, Crash: c.opStep(),
		Retry: c.retry, Bounded: true, Wire: c.message, Missed: &c.stats.MissBytes,
		OverDirty: c.overDirty, Names: &c.names,
	}
	// Its namespace path: every dentry access holds client_lock; a
	// crash check charges an operation's CPU; an unlinked path's ino is
	// read after the MDS call, under the lock that drops the file; a
	// size push only grows the cached size, whatever its error, and a
	// close reports no push error.
	c.names = cacherun.Names{Clus: clus, Crashed: &c.crashed, Crash: c.opStep(), Op: c.opStep(), Wire: c.message,
		Dentry: locked, PushedAnyway: true, Unlinked: c.unlinked}
	c.names.Reset()
	// Its write-back pops under client_lock, traced, and marks no file
	// Flushing.
	c.wb = cacherun.Writeback[revocation]{Steps: &c.steps, Store: (*writeback)(c), Crashed: &c.crashed,
		Background: func() int64 { return c.cfg.MaxDirty / 2 }, Rec: &c.cfg.Obs, Tenant: cfg.Tenant, FlushPop: locked, DrainPop: locked}
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
	c.names.Reset()
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

// opStep is the fixed user-level charge of one client operation.
func (c *Client) opStep() cpu.Step { return cpu.Charge(cpu.User, c.params.ClientOpCost) }

// holdStep is the standard charge of one client_lock hold.
func (c *Client) holdStep() cpu.Step { return cpu.Charge(cpu.User, c.params.ClientLockHold) }

// copySteps returns the two charges of a data copy of n bytes taking
// client_lock: a lock hold plus the part of the copy done under the
// lock, then the rest of the copy, which releases it first. The read
// path holds the lock for most of the copy (buffer-head lookup and
// read completion run under it — the concurrency cap of §6.3.2), while
// buffered writes release it early.
func (c *Client) copySteps(n int64, write bool) (locked, unlocked cpu.Step) {
	total := c.params.CopyTime(n)
	fraction := c.params.ClientLockCopyFraction
	if write {
		fraction *= 0.25
	}
	under := time.Duration(float64(total) * fraction)
	return cpu.Charge(cpu.User, c.params.ClientLockHold+under),
		cpu.Step{Kind: cpu.User, D: total - under, Unlock: c.clientLock}
}

// opCPU charges the fixed user-level cost of one client operation.
func (c *Client) opCPU(ctx vfsapi.Ctx) {
	ctx.T.Chain(ctx.P, c.opStep())
}

// lockedMeta runs fn holding client_lock with the standard hold charge,
// attributing any lock wait to the tenant of the traced request in
// flight (no-op attribution otherwise).
func (c *Client) lockedMeta(ctx vfsapi.Ctx, fn func()) {
	ctx.T.LockedChain(ctx.P, c.clientLock, ctx.Span, "client_lock", c.holdStep())
	fn()
	c.clientLock.Unlock(ctx.P)
}

// message writes to w the client-side charges on thread t of moving n
// bytes on the network — socket syscalls (kernel mode on the caller's
// cores), protocol CPU and the user-level message checksum — element by
// element so that no caller's frame holds a copy, and returns how many
// it wrote (the request runs' and the namespace path's wire steps).
func (c *Client) message(t *cpu.Thread, n int64, w []cpu.Step) int {
	w[0] = t.ModeSwitchStep()
	w[1] = cpu.Charge(cpu.Kernel, c.params.NetOpCost)
	w[2] = cpu.Charge(cpu.Kernel, model.RateTime(n, c.params.NetCPUBytesPerSec))
	w[3] = t.ModeSwitchStep()
	w[4] = cpu.Charge(cpu.User, model.RateTime(n, c.params.ChecksumBytesPerSec))
	return len(w)
}

// overDirty reports whether a writer must wait for writeback. The
// stopped check makes teardown safe: once the client's flusher threads
// have been stopped nobody can lower the dirty level, so a straggling
// writer must not spin on the threshold.
func (c *Client) overDirty() bool {
	return c.cache.DirtyBytes >= c.cfg.MaxDirty && !c.stopped
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
		c.wb.Flush(ctx)
	}
}

// writeback is a Client as its write-back's cacherun.Store.
type writeback Client

func (*writeback) Prepare(vfsapi.Ctx, *cfile, int64) {}

// StoreExtent persists e of f: the wire CPU, then a write that retries
// until it lands, each attempt advancing the acting primary through the
// replication group. Write-back must not drop data the application
// handed over, so unlike a read it blocks, and fails only when the
// client is stopped or crashed or the error is not a transient fault.
func (w *writeback) StoreExtent(ctx vfsapi.Ctx, f *cfile, e extent.Extent) error {
	c := (*Client)(w)
	c.names.Send(ctx, e.Len)
	return c.retry.Do(ctx, false, func(_, member int) error {
		return c.clus.WriteReplica(ctx, f.Ino, e.Off, e.Len, member)
	})
}

// Flushed counts the bytes a flusher sent, the failed extent's too.
func (w *writeback) Flushed(_, sent int64, _ error) { w.stats.FlushedBytes += sent }

// PushSize propagates the client's size view to the MDS.
func (w *writeback) PushSize(ctx vfsapi.Ctx, f *cfile) {
	if path, ok := w.names.Path(f.Ino); ok {
		w.names.Push(ctx, path, f.Size)
	}
}

// RevokeCaps implements cluster.CapHolder: another client wants
// conflicting access to ino, so this client flushes the file's dirty
// data, pushes its size, and drops every cached byte and attribute for
// it. The next access re-fetches fresh state from the backend.
func (c *Client) RevokeCaps(ctx vfsapi.Ctx, ino uint64) {
	f, ok := c.cache.Lookup(ino)
	if !ok {
		c.names.Forget(ino)
		return
	}
	// A failed persist (a stopped client) still revokes: the drop below
	// discards what the drain left.
	if c.wb.Sync(ctx, f) == ErrCrashed {
		return
	}
	c.lockedMeta(ctx, func() {
		c.dropCache(f)
		f.X.revoked = true
	})
	c.names.Forget(ino)
	c.cache.Forget(ino)
	c.clus.ReleaseCaps(ino, c)
}

// SyncAll synchronously flushes every dirty file and pushes its size
// to the MDS — the quiesce step of container migration (§9): after
// SyncAll the container state is fully visible through the shared
// filesystem from any other client.
func (c *Client) SyncAll(ctx vfsapi.Ctx) { c.wb.SyncAll(ctx) }

// dropCache discards f's cached and dirty data. Caller holds
// client_lock.
func (c *Client) dropCache(f *cfile) {
	if c.cache.Drop(f) > 0 {
		c.throttleQ.Broadcast()
	}
}
