// Package cpu models the multicore processor of a host: cores with
// affinity-constrained FIFO scheduling, quantum-based time sharing,
// per-core utilization accounting and per-pool attribution.
//
// The model captures the two scheduling phenomena the paper builds on:
// kernel threads with a host-wide affinity mask consume the reserved
// (idle) cores of other container pools, while Danaus service threads
// pinned to a pool's cores never leave them.
package cpu

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

// CPU is a set of simulated cores scheduled with FIFO admission and
// quantum-sliced round-robin sharing.
type CPU struct {
	eng     *sim.Engine
	params  *model.Params
	cores   []coreState
	waiters sim.Queue[*waiter] // FIFO runqueue
	all     Mask
	groupSz int
	scanRR  int // rotating scan start spreads load across idle cores

	// runPool recycles execRun states (and their step closures) across
	// coalesced Exec calls, keeping the scheduler hot path free of
	// per-call allocations. Safe without locking: exactly one goroutine
	// runs at any instant in the simulation.
	runPool []*execRun

	rec *obs.Recorder
}

// SetRecorder attaches an observability recorder; every executed core
// slice is then mirrored to it as a per-core trace event. Nil detaches.
func (c *CPU) SetRecorder(rec *obs.Recorder) { c.rec = rec }

// kindName renders a TimeKind for trace tags.
func kindName(k TimeKind) string {
	if k == Kernel {
		return "kernel"
	}
	return "user"
}

// recordSlice mirrors one just-charged core slice (ending now) to the
// recorder. Called only at the points that charge busyTime, so the
// trace's per-core tracks reconstruct exactly the scheduler's view.
func (c *CPU) recordSlice(core int, d time.Duration, acct *Account, k TimeKind) {
	if c.rec == nil {
		return
	}
	name := ""
	if acct != nil {
		name = acct.Name
	}
	c.rec.Core(core, c.eng.Now()-d, d, name, kindName(k))
}

type coreState struct {
	busy     bool
	busyTime time.Duration
	occupant *Account // account running on the core while busy
}

type waiter struct {
	p        *sim.Proc
	th       *Thread
	assigned int
}

// New creates a processor with n cores grouped in pairs sharing cache
// (matching the Opteron 6378 core-pair L2 organization).
func New(eng *sim.Engine, params *model.Params, n int) *CPU {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("cpu: core count %d out of range", n))
	}
	return &CPU{
		eng:     eng,
		params:  params,
		cores:   make([]coreState, n),
		all:     MaskRange(0, n),
		groupSz: 2,
	}
}

// NumCores returns the number of cores.
func (c *CPU) NumCores() int { return len(c.cores) }

// AllMask returns a mask of every core on the host.
func (c *CPU) AllMask() Mask { return c.all }

// GroupOf returns the core-group index (shared-L2 pair) of core id.
func (c *CPU) GroupOf(core int) int { return core / c.groupSz }

// NumGroups returns the number of core groups.
func (c *CPU) NumGroups() int { return (len(c.cores) + c.groupSz - 1) / c.groupSz }

// GroupMask returns the mask of cores in group g.
func (c *CPU) GroupMask(g int) Mask {
	lo := g * c.groupSz
	hi := lo + c.groupSz
	if hi > len(c.cores) {
		hi = len(c.cores)
	}
	return MaskRange(lo, hi) & c.all
}

// Thread is a schedulable entity bound to an Account and an affinity
// mask. Threads are sticky: they prefer the core they last ran on.
type Thread struct {
	cpu      *CPU
	acct     *Account
	mask     Mask
	lastCore int
}

// NewThread creates a thread with the given affinity. A zero mask means
// the thread may run anywhere on the host.
func (c *CPU) NewThread(acct *Account, mask Mask) *Thread {
	if mask == 0 {
		mask = c.all
	}
	return &Thread{cpu: c, acct: acct, mask: mask & c.all, lastCore: -1}
}

// SetAffinity repins the thread to mask (e.g. the front driver pinning
// an application thread to the cores of its first request queue).
func (t *Thread) SetAffinity(mask Mask) {
	if mask != 0 {
		t.mask = mask & t.cpu.all
	}
}

// Affinity returns the current affinity mask.
func (t *Thread) Affinity() Mask { return t.mask }

// LastCore returns the core the thread most recently ran on, or -1.
func (t *Thread) LastCore() int { return t.lastCore }

// Account returns the thread's accounting target.
func (t *Thread) Account() *Account { return t.acct }

// Exec consumes d of CPU time of kind k on a core within the thread's
// affinity mask, waiting FIFO for a core when all are busy and yielding
// the core every scheduler quantum.
//
// Multi-quantum runs are coalesced: the process parks once and the
// per-quantum bookkeeping (charging, release, re-acquire) runs as
// engine-loop callbacks, so an uncontended 10ms Exec costs one
// park/resume round trip instead of one per quantum. The callbacks
// mirror the slice-per-quantum loop event for event — see the execRun
// invariants — so virtual-time results are bit-identical.
func (t *Thread) Exec(p *sim.Proc, k TimeKind, d time.Duration) {
	if d <= 0 {
		return
	}
	c := t.cpu
	core := c.acquire(p, t)
	if d > c.params.Quantum {
		c.runCoalesced(p, t, k, core, d)
		return
	}
	p.Sleep(d)
	c.cores[core].busyTime += d
	t.acct.addTime(k, d)
	t.lastCore = core
	c.recordSlice(core, d, t.acct, k)
	p.ReportWait("run", "cpu", "", 0, d)
	c.release(core)
}

// execRun drives one coalesced multi-quantum Exec. The owning process
// parks once; per-quantum bookkeeping fires as engine callbacks via
// step. The chain is constructed to be event-for-event identical to the
// historical acquire/Sleep(quantum)/release loop: at every point where
// that loop pushed exactly one engine event (the next Sleep wake, or a
// waiter handoff inside release), the chain pushes exactly one event of
// the same timestamp at the same position in engine seq order. Because
// the event heap breaks timestamp ties by seq, this preserves the
// simulation's event interleaving — and therefore its virtual-time
// results — bit for bit.
type execRun struct {
	c     *CPU
	p     *sim.Proc
	t     *Thread
	kind  TimeKind
	core  int
	d     time.Duration // remaining work, including the in-flight slice
	slice time.Duration // length of the in-flight slice
	final bool          // in-flight slice is the last: its wake resumes p
	lost  bool          // core lost at a boundary: p queued in c.waiters
	w     waiter        // reusable waiter record for the lost case
	step  func()        // reusable boundary callback (captures this run)

	// Wait-observer bookkeeping for the lost-core path: when it began
	// and which account is to blame, captured at enqueue time.
	lostAt time.Duration
	aggr   string
}

// runCoalesced executes the remaining d (> one quantum) of work for t
// on the already-acquired core, parking p until the work is consumed.
func (c *CPU) runCoalesced(p *sim.Proc, t *Thread, k TimeKind, core int, d time.Duration) {
	r := c.getRun()
	r.p, r.t, r.kind, r.core, r.d = p, t, k, core, d
	r.final, r.lost = false, false
	r.slice = c.params.Quantum
	c.eng.After(r.slice, r.step) // same push the old loop's first Sleep made
	for {
		p.Park()
		if r.lost {
			// A boundary callback lost the core; a release just handed
			// us a new one. Mirror the old loop's post-acquire path.
			r.lost = false
			r.core = r.w.assigned
			p.ReportWait("runq", "cpu", r.aggr, 0, c.eng.Now()-r.lostAt)
			if r.d > c.params.Quantum {
				r.slice = c.params.Quantum
				c.eng.After(r.slice, r.step)
				continue
			}
			r.final = true
			r.slice = r.d
			c.eng.ScheduleWakeAfter(p, r.slice)
			continue
		}
		// Final wake: charge the last slice and release, exactly as the
		// old loop's last iteration did after its Sleep returned.
		c.cores[r.core].busyTime += r.slice
		t.acct.addTime(k, r.slice)
		t.lastCore = r.core
		c.recordSlice(r.core, r.slice, t.acct, k)
		p.ReportWait("run", "cpu", "", 0, r.slice)
		c.release(r.core)
		break
	}
	c.putRun(r)
}

// fire is the per-quantum boundary callback of a coalesced run: charge
// the completed slice, then replay release + re-acquire. It performs
// the same state mutations and event pushes, in the same order, as one
// iteration of the historical Exec loop.
func (r *execRun) fire() {
	c := r.c
	c.cores[r.core].busyTime += r.slice
	r.t.acct.addTime(r.kind, r.slice)
	r.t.lastCore = r.core
	c.recordSlice(r.core, r.slice, r.t.acct, r.kind)
	r.p.ReportWait("run", "cpu", "", 0, r.slice)
	r.d -= r.slice
	c.release(r.core)
	core, ok := c.tryAcquire(r.t)
	if !ok {
		// Preempted: queue FIFO exactly where the old loop's acquire
		// would have parked. A later release wakes p with the core.
		r.lost = true
		r.lostAt = c.eng.Now()
		if c.eng.HasWaitObserver() {
			r.aggr = c.runqAggressor(r.t)
		}
		r.w = waiter{p: r.p, th: r.t, assigned: -1}
		c.waiters.Push(&r.w)
		return
	}
	r.core = core
	if r.d > c.params.Quantum {
		r.slice = c.params.Quantum
		c.eng.After(r.slice, r.step)
		return
	}
	// Last slice: hand its wake to the parked process so the run ends
	// with the same proc-resume event the old loop's final Sleep pushed.
	r.final = true
	r.slice = r.d
	c.eng.ScheduleWakeAfter(r.p, r.slice)
}

func (c *CPU) getRun() *execRun {
	if n := len(c.runPool); n > 0 {
		r := c.runPool[n-1]
		c.runPool = c.runPool[:n-1]
		return r
	}
	r := &execRun{c: c}
	r.step = r.fire
	return r
}

func (c *CPU) putRun(r *execRun) {
	r.p, r.t = nil, nil
	r.w = waiter{}
	c.runPool = append(c.runPool, r)
}

// ExecBytes consumes CPU time equivalent to processing n bytes at the
// given single-core rate.
func (t *Thread) ExecBytes(p *sim.Proc, k TimeKind, n, bytesPerSec int64) {
	t.Exec(p, k, model.RateTime(n, bytesPerSec))
}

// ModeSwitch charges one user/kernel crossing to the thread.
func (t *Thread) ModeSwitch(p *sim.Proc) {
	t.acct.modeSwitches++
	t.Exec(p, Kernel, t.cpu.params.ModeSwitchCost)
}

// ContextSwitch charges one thread switch to the thread's account.
func (t *Thread) ContextSwitch(p *sim.Proc) {
	t.acct.contextSwitches++
	t.Exec(p, Kernel, t.cpu.params.ContextSwitchCost)
}

// acquire obtains an idle core in the thread's mask, parking FIFO when
// none is available. Released cores are handed directly to the oldest
// compatible waiter, so admission order is preserved.
func (c *CPU) acquire(p *sim.Proc, t *Thread) int {
	if core, ok := c.tryAcquire(t); ok {
		return core
	}
	since := c.eng.Now()
	aggr := ""
	if c.eng.HasWaitObserver() {
		aggr = c.runqAggressor(t)
	}
	w := &waiter{p: p, th: t, assigned: -1}
	c.waiters.Push(w)
	p.Park()
	p.ReportWait("runq", "cpu", aggr, 0, c.eng.Now()-since)
	return w.assigned
}

// runqAggressor names the account to blame for a core-acquisition wait
// beginning now: the occupant of a busy core inside the waiter's mask,
// preferring an account different from the waiter's own (that is the
// core-theft case the paper measures — e.g. a host-wide kernel flusher
// squatting on a pool's reserved cores). Ties break on the lowest core
// index, keeping attribution deterministic.
func (c *CPU) runqAggressor(t *Thread) string {
	self := ""
	for w := uint64(t.mask); w != 0; w &= w - 1 {
		core := bits.TrailingZeros64(w)
		cs := &c.cores[core]
		if !cs.busy || cs.occupant == nil {
			continue
		}
		if cs.occupant != t.acct {
			return cs.occupant.Name
		}
		if self == "" {
			self = cs.occupant.Name
		}
	}
	return self
}

// tryAcquire claims an idle core in the thread's mask without blocking.
// Fast path: sticky core, then a rotating scan so unpinned threads
// (e.g. kernel flushers) spread across every idle core of the host
// instead of clustering on the lowest-numbered ones. The scan walks the
// mask with bit operations — ascending core order starting at the
// scanRR-th set bit, wrapping — visiting exactly the sequence the
// former Cores()-slice scan produced, without the allocation.
func (c *CPU) tryAcquire(t *Thread) (int, bool) {
	if t.lastCore >= 0 && t.mask.Has(t.lastCore) && !c.cores[t.lastCore].busy {
		c.cores[t.lastCore].busy = true
		c.cores[t.lastCore].occupant = t.acct
		return t.lastCore, true
	}
	if t.mask != 0 {
		start := c.scanRR % t.mask.Count()
		c.scanRR++
		// rest holds the set bits from the start-th onward; the wrapped
		// remainder is the cleared lower bits.
		rest := uint64(t.mask)
		for i := 0; i < start; i++ {
			rest &= rest - 1
		}
		for _, w := range [2]uint64{rest, uint64(t.mask) &^ rest} {
			for ; w != 0; w &= w - 1 {
				core := bits.TrailingZeros64(w)
				if !c.cores[core].busy {
					c.cores[core].busy = true
					c.cores[core].occupant = t.acct
					return core, true
				}
			}
		}
	}
	return -1, false
}

// release frees core, or hands it directly to the oldest waiter whose
// mask allows it.
func (c *CPU) release(core int) {
	for i := 0; i < c.waiters.Len(); i++ {
		w := c.waiters.At(i)
		if !w.th.mask.Has(core) {
			continue
		}
		c.waiters.Remove(i)
		w.assigned = core // core stays busy: direct handoff
		c.cores[core].occupant = w.th.acct
		c.eng.ScheduleWake(w.p)
		return
	}
	c.cores[core].busy = false
	c.cores[core].occupant = nil
}

// UtilSnapshot captures each core's cumulative busy time.
func (c *CPU) UtilSnapshot() []time.Duration {
	out := make([]time.Duration, len(c.cores))
	for i := range c.cores {
		out[i] = c.cores[i].busyTime
	}
	return out
}

// Utilization returns the summed utilization of the cores in mask over
// the window since the given snapshot, as a fraction of ONE core (so a
// fully busy 2-core mask reports 2.0, rendered as 200%).
func (c *CPU) Utilization(mask Mask, since []time.Duration, window time.Duration) float64 {
	if window <= 0 {
		return 0
	}
	var busy time.Duration
	for w := uint64(mask); w != 0; w &= w - 1 {
		core := bits.TrailingZeros64(w)
		busy += c.cores[core].busyTime - since[core]
	}
	return float64(busy) / float64(window)
}
