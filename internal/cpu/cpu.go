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
	runq    sim.Queue[*execRun] // FIFO runqueue
	all     Mask
	groupSz int
	scanRR  int // rotating scan start spreads load across idle cores

	// runPool recycles execRun states (and their callbacks) across Exec
	// calls, keeping the scheduler hot path free of per-call
	// allocations. Safe without locking: exactly one goroutine runs at
	// any instant in the simulation.
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
// the core every scheduler quantum. It is a one-step Chain.
func (t *Thread) Exec(p *sim.Proc, k TimeKind, d time.Duration) {
	if d > 0 {
		t.run(p, t, k, d, nil)
	}
}

// Counter names the account counter a Step bumps before it runs.
type Counter uint8

// Step counters.
const (
	NoCount            Counter = iota // a plain CPU charge
	CountModeSwitch                   // bumps Account.ModeSwitches
	CountContextSwitch                // bumps Account.ContextSwitches
)

// Step is one charge of a Chain: release Unlock if set, bump the Count
// counter of Thread's account, then consume D of CPU time of Kind on a
// core in Thread's mask. A step with D <= 0 does all but the charge. A
// nil Thread is the thread the chain runs on; another one must belong
// to the same CPU.
type Step struct {
	Kind   TimeKind
	Count  Counter
	D      time.Duration
	Thread *Thread
	Unlock *sim.Mutex
}

// Charge returns the step Exec(k, d) runs.
func Charge(k TimeKind, d time.Duration) Step { return Step{Kind: k, D: d} }

// ModeSwitchStep returns the step ModeSwitch runs on t.
func (t *Thread) ModeSwitchStep() Step {
	return Step{Kind: Kernel, D: t.cpu.params.ModeSwitchCost, Count: CountModeSwitch, Thread: t}
}

// ContextSwitchStep returns the step ContextSwitch runs on t.
func (t *Thread) ContextSwitchStep() Step {
	return Step{Kind: Kernel, D: t.cpu.params.ContextSwitchCost, Count: CountContextSwitch, Thread: t}
}

// Chain runs steps back to back, each on its own thread. It is
// equivalent, event for event, to issuing the same steps as consecutive
// Exec, ModeSwitch and ContextSwitch calls on their threads, with each
// step's Unlock called just before it, so it fits any run of charges and
// lock releases between which the process does nothing else — a FUSE
// daemon thread's reply charges and the application thread's return
// charges that follow them, say.
//
// The process parks at most once: only the wake that ends the last
// slice of the last step resumes it. Waiting for a core, every quantum
// boundary and step boundary (charge, release the core, enter the next
// step: release its lock, bump its counter; re-acquire) and every core
// grant run as engine callbacks of a pooled execRun, so a contended,
// multi-quantum or multi-step chain costs one park/resume round trip; a
// single slice on an idle core is a plain Sleep. The callbacks mirror
// the historical per-quantum loop event for event — see the execRun
// invariants — so virtual-time results are bit-identical.
func (t *Thread) Chain(p *sim.Proc, steps ...Step) {
	t.LockedChain(p, nil, nil, "", steps...)
}

// LockedChain acquires m, then runs steps as Chain does; a step's Unlock
// (or the caller, after the chain) releases m. It is equivalent, event
// for event, to m.Lock followed by the chain, with the lock wait —
// zero when m was free — passed to span.LockWait under the name lock at
// the instant m is granted. When m is held and the chain has work, m is
// queued for through a callback waiter, so the process still parks once
// for lock wait and chain together. A nil m runs Chain.
func (t *Thread) LockedChain(p *sim.Proc, m *sim.Mutex, span *obs.Span, lock string, steps ...Step) {
	first, last := -1, -1
	for i := range steps {
		if steps[i].D > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if m != nil && first >= 0 && m.Locked() {
		r := t.cpu.getRun(p, t)
		r.rest = append(r.rest[:0], steps[:last+1]...)
		r.since, r.span, r.lock = t.cpu.eng.Now(), span, lock
		m.LockOrQueue(p, r.locked) // m is held: this queues
		t.cpu.park(r)
	} else {
		if m != nil {
			// m is free, or no step has work to chain the wait to.
			start := t.cpu.eng.Now()
			m.Lock(p)
			span.LockWait(lock, t.cpu.eng.Now()-start)
		}
		if first >= 0 {
			th := t.enter(p, steps[:first+1])
			t.run(p, th, steps[first].Kind, steps[first].D, steps[first+1:last+1])
		}
	}
	// Trailing zero-length steps (all steps, when none has work) are
	// entered at the event that ended the last slice, as consecutive
	// calls would.
	t.enter(p, steps[last+1:])
}

// enter enters steps in order, for a chain running on t, and returns
// the thread of the last one.
func (t *Thread) enter(p *sim.Proc, steps []Step) *Thread {
	th := t
	for i := range steps {
		th = t.enterStep(p, &steps[i])
	}
	return th
}

// enterStep does what precedes s's charge — release its lock, bump its
// counter — and returns the thread it runs on.
func (t *Thread) enterStep(p *sim.Proc, s *Step) *Thread {
	if s.Thread != nil {
		t = s.Thread
	}
	if s.Unlock != nil {
		s.Unlock.Unlock(p)
	}
	t.acct.count(s.Count)
	return t
}

// run executes d of kind k on th, the work of an entered step, and then
// rest, whose last step has work, as a chain on t, parking the process
// once.
func (t *Thread) run(p *sim.Proc, th *Thread, k TimeKind, d time.Duration, rest []Step) {
	c := t.cpu
	core, ok := c.tryAcquire(th)
	if ok && len(rest) == 0 && d <= c.params.Quantum {
		// One slice on an idle core: a plain Sleep needs no run state.
		p.Sleep(d)
		c.endSlice(p, th, k, core, d)
		return
	}
	r := c.getRun(p, t)
	r.t, r.kind, r.d = th, k, d
	r.rest = append(r.rest[:0], rest...)
	if ok {
		r.core = core
		r.startSlice()
	} else {
		c.enqueue(r)
	}
	c.park(r)
}

// park blocks r's process until the wake that ends r's last slice, then
// charges that slice and recycles r.
func (c *CPU) park(r *execRun) {
	r.p.Park()
	c.endSlice(r.p, r.t, r.kind, r.core, r.slice)
	c.putRun(r)
}

// endSlice charges the slice of length d that t ran on core, ending now,
// and releases the core.
func (c *CPU) endSlice(p *sim.Proc, t *Thread, k TimeKind, core int, d time.Duration) {
	c.cores[core].busyTime += d
	t.acct.addTime(k, d)
	t.lastCore = core
	c.recordSlice(core, d, t.acct, k)
	p.ReportWait("run", "cpu", "", 0, d)
	c.release(core)
}

// execRun drives one Chain. The owning process parks once; everything
// before the last slice's wake fires as engine callbacks: grant when a
// release hands the run a core, step at each quantum or step boundary,
// and, for a LockedChain that queued for its mutex, locked when the
// mutex is handed over. The chain is constructed to be event-for-event
// identical to the historical loop, which took the lock with Lock and
// then ran each step as its own call (release the step's lock, bump the
// counter; then, once per quantum, acquire, parking until a release
// wakes the waiter, Sleep(min(quantum, rest)) and release): at every
// point where that loop pushed exactly one engine event — a Sleep wake,
// the waiter's wake inside release, or the mutex handoff's wake — the
// chain pushes exactly one event of the same timestamp at the same
// position in engine seq order. Because the event queue breaks
// timestamp ties by seq, and wait reports are passive, this preserves
// the simulation's event interleaving — and therefore its virtual-time
// results — bit for bit. Only the kind of some events changed: the
// waiter's resume is now the grant or locked callback, and the wake that
// ended a step other than the last is now the step callback.
// TestExecMatchesHistoricalLoop checks this against that loop.
type execRun struct {
	c      *CPU
	p      *sim.Proc
	chainT *Thread // the thread the chain runs on: that of steps without one
	t      *Thread // the thread of the current step
	rest   []Step  // the steps after the current one, through the last with work
	i      int     // index in rest of the next step to enter
	kind   TimeKind
	core   int
	d      time.Duration // remaining work of the current step, including the in-flight slice
	slice  time.Duration // length of the in-flight slice
	step   func()        // reusable quantum- and step-boundary callback (fire)
	grant  func()        // reusable core-grant callback (granted)
	locked func()        // reusable mutex-grant callback (lockGranted)

	// Wait-observer bookkeeping for a queued run: when the wait began
	// (the core wait, or the lock wait of a LockedChain) and which
	// account is to blame, captured at enqueue time.
	since time.Duration
	aggr  string
	// A LockedChain's lock wait is passed to span under the name lock.
	span *obs.Span
	lock string
}

// next enters the next step with work, entering every step on its way.
// The last entry of rest has work, so a step is always found.
func (r *execRun) next() {
	for {
		s := &r.rest[r.i]
		r.i++
		th := r.chainT.enterStep(r.p, s)
		if s.D > 0 {
			r.t, r.kind, r.d = th, s.Kind, s.D
			return
		}
	}
}

// startSlice runs the next slice on r.core: a full quantum, or the rest
// of the step, ending in the boundary callback — except the last slice
// of the last step, whose wake resumes the parked process with the same
// proc-resume event the historical loop's final Sleep pushed.
func (r *execRun) startSlice() {
	c := r.c
	r.slice = min(r.d, c.params.Quantum)
	if r.slice == r.d && r.i == len(r.rest) {
		c.eng.ScheduleWakeAfter(r.p, r.slice)
		return
	}
	c.eng.After(r.slice, r.step)
}

// acquire takes a core for the current step at once and starts its
// slice, or queues for one.
func (r *execRun) acquire() {
	if core, ok := r.c.tryAcquire(r.t); ok {
		r.core = core
		r.startSlice()
		return
	}
	r.c.enqueue(r)
}

// fire is the boundary callback: charge the completed slice, release the
// core, move to the next step when this one is done, then re-acquire a
// core at once or queue for it, exactly as the historical loop did
// between two slices.
func (r *execRun) fire() {
	r.c.endSlice(r.p, r.t, r.kind, r.core, r.slice)
	r.d -= r.slice
	if r.d == 0 {
		r.next() // not the last step with work: that one ends in a wake
	}
	r.acquire()
}

// granted is the callback a release schedules after handing r.core to
// the queued run: it ends the runqueue wait and starts the next slice.
func (r *execRun) granted() {
	r.p.ReportWait("runq", "cpu", r.aggr, 0, r.c.eng.Now()-r.since)
	r.startSlice()
}

// lockGranted is the callback a LockedChain's mutex runs when it is
// handed over: it ends the lock wait, as the process resuming from Lock
// did, and enters the chain's first step with work.
func (r *execRun) lockGranted() {
	r.span.LockWait(r.lock, r.c.eng.Now()-r.since)
	r.next()
	r.acquire()
}

func (c *CPU) getRun(p *sim.Proc, t *Thread) *execRun {
	var r *execRun
	if n := len(c.runPool); n > 0 {
		r = c.runPool[n-1]
		c.runPool = c.runPool[:n-1]
	} else {
		r = &execRun{c: c}
		r.step, r.grant, r.locked = r.fire, r.granted, r.lockGranted
	}
	r.p, r.chainT, r.t, r.i = p, t, t, 0
	return r
}

func (c *CPU) putRun(r *execRun) {
	r.p, r.chainT, r.t, r.span = nil, nil, nil, nil
	c.runPool = append(c.runPool, r)
}

// ExecBytes consumes CPU time equivalent to processing n bytes at the
// given single-core rate.
func (t *Thread) ExecBytes(p *sim.Proc, k TimeKind, n, bytesPerSec int64) {
	t.Exec(p, k, model.RateTime(n, bytesPerSec))
}

// ModeSwitch charges one user/kernel crossing to the thread.
func (t *Thread) ModeSwitch(p *sim.Proc) { t.Chain(p, t.ModeSwitchStep()) }

// ContextSwitch charges one thread switch to the thread's account.
func (t *Thread) ContextSwitch(p *sim.Proc) { t.Chain(p, t.ContextSwitchStep()) }

// enqueue queues r FIFO for a core in its thread's mask, for a run that
// found none idle. Released cores are handed directly to the oldest
// compatible run, so admission order is preserved.
func (c *CPU) enqueue(r *execRun) {
	r.since = c.eng.Now()
	r.aggr = ""
	if c.eng.HasWaitObserver() {
		r.aggr = c.runqAggressor(r.t)
	}
	c.runq.Push(r)
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

// release frees core, or hands it directly to the oldest queued run
// whose mask allows it. The grant is a callback at the current time,
// pushed where the historical loop pushed the waiter's wake.
func (c *CPU) release(core int) {
	for i := 0; i < c.runq.Len(); i++ {
		r := c.runq.At(i)
		if !r.t.mask.Has(core) {
			continue
		}
		c.runq.Remove(i)
		r.core = core // core stays busy: direct handoff
		c.cores[core].occupant = r.t.acct
		c.eng.After(0, r.grant)
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
