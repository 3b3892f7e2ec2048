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
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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
	all     Mask
	groupSz int
	scanRR  int // rotating scan start spreads load across idle cores

	// The runqueue is one FIFO per distinct affinity mask: a testbed
	// has few (one per pool, the all-cores mask, the group masks).
	// Each queued run carries its admission stamp, so the oldest run
	// that may use a freed core is the head with the smallest stamp
	// among the queues whose mask contains the core — the run a scan
	// of one host-wide FIFO would find, without walking the runs of
	// other pools. See release.
	queues    []*maskQueue   // every mask that has queued a run
	coreQueue [][]*maskQueue // per core, the queues whose mask contains it
	queued    int            // runs queued across all queues
	stamp     uint64         // admission counter: the last stamp given
	refileBuf []*execRun     // reused by refile

	// runPool recycles execRun states (and their callbacks) across Exec
	// calls, keeping the scheduler hot path free of per-call
	// allocations. Safe without locking: exactly one goroutine runs at
	// any instant in the simulation.
	runPool []*execRun
}

// kindName renders a TimeKind for trace tags.
func kindName(k TimeKind) string {
	if k == Kernel {
		return "kernel"
	}
	return "user"
}

type coreState struct {
	busy     bool
	busyTime time.Duration
	occupant *Account // account running on the core while busy
}

// MaxCores is the most cores a processor may have: one bit each of a
// Mask.
const MaxCores = 64

// New creates a processor with n cores grouped in pairs sharing cache
// (matching the Opteron 6378 core-pair L2 organization).
func New(eng *sim.Engine, params *model.Params, n int) *CPU {
	if n <= 0 || n > MaxCores {
		panic(fmt.Sprintf("cpu: core count %d out of range", n))
	}
	return &CPU{
		eng:       eng,
		params:    params,
		cores:     make([]coreState, n),
		coreQueue: make([][]*maskQueue, n),
		all:       MaskRange(0, n),
		groupSz:   2,
	}
}

// maskQueue holds, in admission order, the queued runs whose thread's
// affinity mask is mask.
type maskQueue struct {
	mask Mask
	q    sim.Queue[*execRun]
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
	q        *maskQueue // the queue of mask; nil until the thread queues
	queued   int        // runs of this thread waiting in q
}

// NewThread creates a thread with the given affinity. A zero mask means
// the thread may run anywhere on the host; the host's cores outside
// mask are dropped, and a nonzero mask with no core on the host panics.
func (c *CPU) NewThread(acct *Account, mask Mask) *Thread {
	if mask == 0 {
		mask = c.all
	}
	return &Thread{cpu: c, acct: acct, mask: c.onHost(mask), lastCore: -1}
}

// onHost returns the cores of a nonzero mask that exist on the host. A
// thread with none could never run, so that is a configuration error.
func (c *CPU) onHost(mask Mask) Mask {
	if mask&c.all == 0 {
		panic(fmt.Sprintf("cpu: affinity mask %v has no core on a %d-core host", mask, len(c.cores)))
	}
	return mask & c.all
}

// SetAffinity repins the thread to mask (e.g. the front driver pinning
// an application thread to the cores of its first request queue). A
// zero mask is ignored; one with no core on the host panics. Runs of
// the thread that are queued for a core move to the new mask's queue.
func (t *Thread) SetAffinity(mask Mask) {
	if mask == 0 {
		return
	}
	mask = t.cpu.onHost(mask)
	if mask == t.mask {
		return
	}
	t.mask = mask
	if t.queued > 0 {
		t.cpu.refile(t)
	} else {
		t.q = nil
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
		t.Chain(p, Charge(k, d))
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

// ContextSwitchStep returns one thread switch charged to t's account.
func (t *Thread) ContextSwitchStep() Step {
	return Step{Kind: Kernel, D: t.cpu.params.ContextSwitchCost, Count: CountContextSwitch, Thread: t}
}

// Chain runs steps back to back, each on its own thread. It is
// equivalent, event for event, to issuing the same steps as consecutive
// one-step chains (Exec, ModeSwitch) on their threads, with each
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
// single slice on an idle core pushes only its wake, as a Sleep does.
// The callbacks mirror the historical per-quantum loop event for event
// — see the execRun invariants — so virtual-time results are
// bit-identical.
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
	if r := t.start(p, m, span, lock, nil, steps); r != nil {
		p.Park()
		// The wake that ended the last slice: charge it, enter the
		// trailing zero-length steps and recycle the run, as the
		// continuation form's callback does.
		r.fire()
	}
}

// LockedChainThen is the continuation form of LockedChain: it never
// parks p, so an engine callback acting for a parked p may call it. The
// event that would have woken p runs a callback instead, which charges
// the last slice, enters the trailing zero-length steps, recycles the
// run and calls then; a chain with no work and no lock wait calls then
// before LockedChainThen returns. Event for event it is LockedChain, so
// a process that parks once and lets then start its next step — or hand
// control back with p.ResumeHere — keeps every simulated result.
func (t *Thread) LockedChainThen(p *sim.Proc, m *sim.Mutex, span *obs.Span, lock string, then func(), steps ...Step) {
	t.start(p, m, span, lock, then, steps)
}

// start begins a chain of steps on t for p, after taking m: it returns
// the run, still going, or nil when it ended at once (no work, no lock
// wait). With a nil then the run ends in a wake of p, which calls fire
// to end it; otherwise in a callback that ends it and calls then.
func (t *Thread) start(p *sim.Proc, m *sim.Mutex, span *obs.Span, lock string, then func(), steps []Step) *execRun {
	c := t.cpu
	r := c.getRun(p, t)
	r.rest = append(r.rest[:0], steps...)
	r.work = 0
	for i := range steps {
		if steps[i].D > 0 {
			r.work = i + 1
		}
	}
	r.then, r.span, r.lock = then, span, lock
	if m != nil {
		r.since = c.eng.Now()
		switch {
		case then == nil && r.work == 0:
			// A blocking chain with no work to chain the wait to: its
			// process waits for m itself, as m.Lock does.
			m.Lock(p)
		case !m.LockOrQueue(p, r.locked):
			return r
		}
		span.LockWait(lock, c.eng.Now()-r.since)
	}
	if r.proceed() {
		return r
	}
	return nil
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
// ended a step other than the last is now the step callback, as is the
// one that ended the last step of a continuation (LockedChainThen).
// TestExecMatchesHistoricalLoop checks this against that loop.
type execRun struct {
	c      *CPU
	p      *sim.Proc
	chainT *Thread // the thread the chain runs on: that of steps without one
	t      *Thread // the thread of the current step
	rest   []Step  // the chain's steps
	i      int     // index in rest of the next step to enter
	work   int     // index in rest just past the last step with work
	kind   TimeKind
	core   int
	d      time.Duration // remaining work of the current step, including the in-flight slice
	slice  time.Duration // length of the in-flight slice
	then   func()        // continuation after the chain; nil: the chain ends in p's wake
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

	stamp uint64 // admission order while queued for a core
}

// next enters the next step with work, entering every step on its way,
// and reports whether it found one; if not, every step has been
// entered.
func (r *execRun) next() bool {
	for r.i < len(r.rest) {
		s := &r.rest[r.i]
		r.i++
		th := r.chainT.enterStep(r.p, s)
		if s.D > 0 {
			r.t, r.kind, r.d = th, s.Kind, s.D
			return true
		}
	}
	return false
}

// startSlice runs the next slice on r.core: a full quantum, or the rest
// of the step, ending in the boundary callback — except the last slice
// of a blocking chain, whose wake resumes the parked process with the
// same proc-resume event the historical loop's final Sleep pushed.
func (r *execRun) startSlice() {
	c := r.c
	r.slice = min(r.d, c.params.Quantum)
	if r.then == nil && r.slice == r.d && r.i == r.work {
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

// fire ends a slice, as the boundary callback or, for the last slice of
// a blocking chain, in its process after the wake: charge the completed
// slice, report it once (the observer takes it as a core slice and as
// the process's run wait) and release the core, then re-acquire a core
// for the rest of the step, or proceed to the next step, at once or by
// queueing for a core, exactly as the historical loop did between two
// slices.
func (r *execRun) fire() {
	c, t := r.c, r.t
	c.cores[r.core].busyTime += r.slice
	t.acct.addTime(r.kind, r.slice)
	t.lastCore = r.core
	r.p.ReportSlice(r.core, t.acct.name(), kindName(r.kind), r.slice)
	c.release(r.core)
	r.d -= r.slice
	if r.d > 0 {
		r.acquire()
		return
	}
	r.proceed()
}

// proceed enters the steps up to the next one with work and acquires a
// core for it, or, past the last one, finishes; it reports whether the
// run goes on.
func (r *execRun) proceed() bool {
	if r.next() {
		r.acquire()
		return true
	}
	r.finish()
	return false
}

// finish recycles the ended run and calls its continuation.
func (r *execRun) finish() {
	then := r.then
	r.c.putRun(r)
	if then != nil {
		then()
	}
}

// granted is the callback a release schedules after handing r.core to
// the queued run: it ends the runqueue wait and starts the next slice.
func (r *execRun) granted() {
	r.p.ReportWait("runq", "cpu", r.aggr, 0, r.c.eng.Now()-r.since)
	r.startSlice()
}

// lockGranted is the callback a LockedChain's mutex runs when it is
// handed over: it ends the lock wait, as the process resuming from Lock
// did, and enters the chain's first step with work, or, with none, all
// steps and finishes.
func (r *execRun) lockGranted() {
	r.span.LockWait(r.lock, r.c.eng.Now()-r.since)
	r.proceed()
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
	r.p, r.chainT, r.t, r.span, r.then = nil, nil, nil, nil, nil
	c.runPool = append(c.runPool, r)
}

// ExecBytes consumes CPU time equivalent to processing n bytes at the
// given single-core rate.
func (t *Thread) ExecBytes(p *sim.Proc, k TimeKind, n, bytesPerSec int64) {
	t.Exec(p, k, model.RateTime(n, bytesPerSec))
}

// ModeSwitch charges one user/kernel crossing to the thread.
func (t *Thread) ModeSwitch(p *sim.Proc) { t.Chain(p, t.ModeSwitchStep()) }

// enqueue queues r for a core in its thread's mask, for a run that
// found none idle: it stamps r with the next admission number and
// appends it to the FIFO of the thread's mask. Released cores are
// handed directly to the oldest compatible run, so admission order is
// preserved.
func (c *CPU) enqueue(r *execRun) {
	r.since = c.eng.Now()
	r.aggr = ""
	if c.eng.HasWaitObserver() {
		r.aggr = c.runqAggressor(r.t)
	}
	t := r.t
	if t.q == nil {
		t.q = c.queueFor(t.mask)
	}
	c.stamp++
	r.stamp = c.stamp
	t.q.q.Push(r)
	t.queued++
	c.queued++
}

// queueFor returns the queue of mask, creating it, and listing it under
// each of its cores, the first time a thread of that mask queues.
func (c *CPU) queueFor(mask Mask) *maskQueue {
	for _, mq := range c.queues {
		if mq.mask == mask {
			return mq
		}
	}
	mq := &maskQueue{mask: mask}
	c.queues = append(c.queues, mq)
	for w := uint64(mask); w != 0; w &= w - 1 {
		core := bits.TrailingZeros64(w)
		c.coreQueue[core] = append(c.coreQueue[core], mq)
	}
	return mq
}

// refile moves the queued runs of t, whose mask has just changed, from
// the queue of its old mask to that of the new one: it takes every run
// out of both and puts each back, in stamp order, into the queue of its
// thread's mask, so each queue again holds exactly the queued runs
// whose thread has its mask now, in admission order.
func (c *CPU) refile(t *Thread) {
	from := t.q
	t.q = c.queueFor(t.mask)
	buf := c.refileBuf[:0]
	for _, mq := range [2]*maskQueue{from, t.q} {
		for mq.q.Len() > 0 {
			buf = append(buf, mq.q.Pop())
		}
	}
	slices.SortFunc(buf, func(a, b *execRun) int { return cmp.Compare(a.stamp, b.stamp) })
	for _, r := range buf {
		r.t.q.q.Push(r)
	}
	clear(buf)
	c.refileBuf = buf[:0]
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
// whose mask allows it: the head with the smallest stamp among the
// queues whose mask contains core. Runs of masks without core are never
// looked at. The grant is a callback at the current time, pushed where
// the historical loop pushed the waiter's wake.
func (c *CPU) release(core int) {
	if c.queued > 0 {
		var best *maskQueue
		var stamp uint64
		for _, mq := range c.coreQueue[core] {
			if mq.q.Len() == 0 {
				continue
			}
			if s := mq.q.At(0).stamp; best == nil || s < stamp {
				best, stamp = mq, s
			}
		}
		if best != nil {
			r := best.q.Pop()
			r.t.queued--
			c.queued--
			r.core = core // core stays busy: direct handoff
			c.cores[core].occupant = r.t.acct
			c.eng.After(0, r.grant)
			return
		}
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
