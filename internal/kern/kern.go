// Package kern models the shared host kernel: the VFS entry layer, a
// page cache with per-mount memory limits and dirty tracking, global
// kernel locks (page-LRU and writeback list), per-file inode mutexes,
// and roaming writeback flusher threads.
//
// Two properties of this model drive the paper's motivation results:
//
//   - Flusher threads run with a host-wide affinity mask, so dirty data
//     of one container pool is flushed using the idle reserved cores of
//     every other pool (Fig 1a). When those cores become busy, flushing
//     — and therefore write throughput — collapses.
//
//   - All mounts share the kernel's lru and writeback locks, so a
//     high-rate tenant inflates every other tenant's per-request lock
//     wait (Fig 1b).
package kern

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Kernel is one host kernel instance shared by every container pool on
// the machine.
type Kernel struct {
	eng    *sim.Engine
	cpus   *cpu.CPU
	params *model.Params
	acct   *cpu.Account // kernel-thread accounting (flushers)

	// Global locks shared across all mounts.
	lruLock       *sim.Mutex
	writebackLock *sim.Mutex

	mounts     []*Mount
	mountRR    int // rotating scan start for fair writeback across mounts
	flusherQ   *sim.WaitQueue
	flushers   int
	stopped    bool
	inodeLocks []*sim.Mutex // registry for lock statistics

	// flusherThreads are the CPU threads of the writeback flushers;
	// flusherMask, when non-zero, overrides their host-wide affinity
	// (the what-if profiler pins flushers off pool cores with it).
	flusherThreads []*cpu.Thread
	flusherMask    cpu.Mask

	// brownout is a refcount of overload sources (open circuit
	// breakers, admission queues past high water) currently asking the
	// kernel to degrade gracefully. While positive, every mount's dirty
	// thresholds tighten to a quarter and readahead is deferred, so the
	// kernel sheds buffered state instead of growing it into an
	// overloaded backend. brownoutFlips counts off->on transitions.
	brownout      int
	brownoutFlips uint64

	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder: kernel flusher
// passes then open writeback spans tagged with the originating
// tenant, and traced requests get per-tenant lock-wait attribution on
// the shared kernel locks. Nil detaches.
func (k *Kernel) SetRecorder(rec *obs.Recorder) { k.rec = rec }

// lockSpan acquires mu, attributing any wait to the tenant of the
// request being served (ctx.Span) under the given lock name. Without
// an active span it is exactly mu.Lock: the extra clock reads are
// engine-passive, so traced and untraced runs schedule identically.
func (k *Kernel) lockSpan(ctx vfsapi.Ctx, mu *sim.Mutex, name string) {
	if ctx.Span == nil {
		mu.Lock(ctx.P)
		return
	}
	start := k.eng.Now()
	mu.Lock(ctx.P)
	ctx.Span.LockWait(name, k.eng.Now()-start)
}

// New creates the host kernel and starts its writeback flusher threads.
func New(eng *sim.Engine, cpus *cpu.CPU, params *model.Params) *Kernel {
	k := &Kernel{
		eng:           eng,
		cpus:          cpus,
		params:        params,
		acct:          cpu.NewAccount("kernel"),
		lruLock:       sim.NewMutex(eng, "lru_lock"),
		writebackLock: sim.NewMutex(eng, "wb_lock"),
		flusherQ:      sim.NewWaitQueue(eng, "flusherq"),
	}
	for i := 0; i < params.NumFlushers; i++ {
		k.flushers++
		eng.Go("kflushd", func(p *sim.Proc) { k.flusherLoop(p) })
	}
	return k
}

// Account returns the kernel-thread CPU account.
func (k *Kernel) Account() *cpu.Account { return k.acct }

// CPU returns the host processor.
func (k *Kernel) CPU() *cpu.CPU { return k.cpus }

// Params returns the cost model.
func (k *Kernel) Params() *model.Params { return k.params }

// Engine returns the simulation engine.
func (k *Kernel) Engine() *sim.Engine { return k.eng }

// Stop terminates the flusher threads after their current pass (used at
// the end of an experiment so the engine can drain).
func (k *Kernel) Stop() {
	k.stopped = true
	k.flusherQ.Broadcast()
	for _, m := range k.mounts {
		m.throttleQ.Broadcast()
	}
}

// LockStats aggregates wait/hold statistics across every kernel lock:
// the global lru and writeback locks plus all per-file inode mutexes.
// This is the quantity plotted in Fig 1b (per-request wait and hold).
func (k *Kernel) LockStats() sim.LockStats {
	var agg sim.LockStats
	add := func(s sim.LockStats) {
		agg.Acquisitions += s.Acquisitions
		agg.Contended += s.Contended
		agg.TotalWait += s.TotalWait
		agg.TotalHold += s.TotalHold
		if s.MaxWait > agg.MaxWait {
			agg.MaxWait = s.MaxWait
		}
	}
	add(k.lruLock.Stats())
	add(k.writebackLock.Stats())
	for _, m := range k.inodeLocks {
		add(m.Stats())
	}
	return agg
}

// LockBreakdown returns per-lock-class statistics — the two global
// locks individually plus all inode mutexes aggregated — for the
// observability harvest (host-level rows of the metrics registry).
func (k *Kernel) LockBreakdown() map[string]sim.LockStats {
	var imutex sim.LockStats
	for _, m := range k.inodeLocks {
		s := m.Stats()
		imutex.Acquisitions += s.Acquisitions
		imutex.Contended += s.Contended
		imutex.TotalWait += s.TotalWait
		imutex.TotalHold += s.TotalHold
		if s.MaxWait > imutex.MaxWait {
			imutex.MaxWait = s.MaxWait
		}
	}
	return map[string]sim.LockStats{
		"lru_lock": k.lruLock.Stats(),
		"wb_lock":  k.writebackLock.Stats(),
		"i_mutex":  imutex,
	}
}

// ResetLockStats zeroes all kernel lock statistics (measurement window
// boundary).
func (k *Kernel) ResetLockStats() {
	k.lruLock.ResetStats()
	k.writebackLock.ResetStats()
	for _, m := range k.inodeLocks {
		m.ResetStats()
	}
}

func (k *Kernel) newInodeLock() *sim.Mutex {
	m := sim.NewMutex(k.eng, "i_mutex")
	k.inodeLocks = append(k.inodeLocks, m)
	return m
}

// SmallOpLockStress charges the shared kernel locks with the aggregate
// hold time of `ops` page-granular operations. Workloads that batch a
// dense small-op stream for event economy (the RandomIO stressor's
// 512-byte requests) use it so the lock pressure the stream exerts on
// other tenants is preserved (the Fig 1b mechanism).
func (k *Kernel) SmallOpLockStress(ctx vfsapi.Ctx, ops int) {
	k.lockSpan(ctx, k.lruLock, "lru_lock")
	ctx.T.Exec(ctx.P, cpu.Kernel, time.Duration(ops)*k.params.LRULockHoldPerPage)
	k.lruLock.Unlock(ctx.P)
	k.lockSpan(ctx, k.writebackLock, "wb_lock")
	ctx.T.Exec(ctx.P, cpu.Kernel, time.Duration(ops)*k.params.WritebackLockHold)
	k.writebackLock.Unlock(ctx.P)
}

// wakeFlushers nudges the writeback threads outside their periodic
// schedule (a mount crossed its background dirty threshold).
func (k *Kernel) wakeFlushers() {
	k.flusherQ.Broadcast()
}

// BrownoutEnter registers one overload source. The first source flips
// the kernel into brownout: dirty thresholds tighten to a quarter,
// readahead is deferred, and the flushers are woken to start draining
// against the lowered background threshold.
func (k *Kernel) BrownoutEnter() {
	k.brownout++
	if k.brownout == 1 {
		k.brownoutFlips++
		k.rec.Mark(obs.HostTenant, "brownout:on")
		k.wakeFlushers()
	}
}

// BrownoutExit unregisters one overload source; the last one out
// restores normal thresholds. Unbalanced exits are ignored.
func (k *Kernel) BrownoutExit() {
	if k.brownout == 0 {
		return
	}
	k.brownout--
	if k.brownout == 0 {
		k.rec.Mark(obs.HostTenant, "brownout:off")
		// Writers parked against the tightened threshold re-check
		// against the restored one.
		for _, m := range k.mounts {
			m.throttleQ.Broadcast()
		}
	}
}

// BrownoutFlips returns how many times brownout engaged.
func (k *Kernel) BrownoutFlips() uint64 { return k.brownoutFlips }

// SetFlusherMask repins every writeback flusher thread — current and
// future — to mask instead of the host-wide default. A zero mask
// restores the roaming behaviour. This is the knob behind the what-if
// profiler's "flusher=pinned" scenario: it removes the Fig 1a core
// theft without changing anything else about the model.
func (k *Kernel) SetFlusherMask(mask cpu.Mask) {
	k.flusherMask = mask
	if mask == 0 {
		mask = k.cpus.AllMask()
	}
	for _, th := range k.flusherThreads {
		th.SetAffinity(mask)
	}
}

// flusherLoop is one kernel writeback thread. Its CPU thread roams the
// entire host: this is the core-stealing behaviour of Fig 1a.
func (k *Kernel) flusherLoop(p *sim.Proc) {
	mask := k.cpus.AllMask()
	if k.flusherMask != 0 {
		mask = k.flusherMask
	}
	th := k.cpus.NewThread(k.acct, mask)
	k.flusherThreads = append(k.flusherThreads, th)
	ctx := vfsapi.Ctx{P: p, T: th}
	for !k.stopped {
		k.flusherQ.WaitTimeout(p, k.params.WritebackInterval)
		if k.stopped {
			return
		}
		for {
			m := k.pickDirtyMount()
			if m == nil {
				break
			}
			if !m.flushPass(ctx) {
				break
			}
		}
	}
}

// pickDirtyMount selects a mount needing writeback: above its
// background threshold, or holding dirty data older than the expire
// age. Several writeback threads may work one mount on distinct files
// (Linux spreads bdi writeback across kworkers), which is how a single
// busy tenant recruits every activated core of the host.
func (k *Kernel) pickDirtyMount() *Mount {
	now := k.eng.Now()
	n := len(k.mounts)
	for i := 0; i < n; i++ {
		m := k.mounts[(k.mountRR+i)%n]
		if m.cache.DirtyBytes == 0 || m.flushing >= k.params.NumFlushers {
			continue
		}
		if m.cache.DirtyBytes >= m.bgThreshold() || now-m.cache.OldestDirty >= k.params.DirtyExpire {
			m.flushing++
			k.mountRR = (k.mountRR + i + 1) % n
			return m
		}
	}
	return nil
}
