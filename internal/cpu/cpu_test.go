package cpu

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
)

func newTestCPU(t *testing.T, cores int) (*sim.Engine, *CPU) {
	t.Helper()
	e := sim.NewEngine()
	return e, New(e, model.Default(), cores)
}

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 3, 5)
	if !m.Has(0) || !m.Has(3) || !m.Has(5) || m.Has(1) {
		t.Fatalf("membership wrong for %v", m)
	}
	if m.Count() != 3 {
		t.Fatalf("Count = %d, want 3", m.Count())
	}
	r := MaskRange(2, 6)
	if got := r.Cores(); len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Fatalf("MaskRange cores = %v", got)
	}
	if u := m.Union(r); u.Count() != 5 {
		t.Fatalf("union count = %d, want 5 for {0,3,5}∪{2..5}", u.Count())
	}
	if s := MaskOf(1, 2).String(); s != "{1,2}" {
		t.Fatalf("String = %q", s)
	}
}

func TestExecConsumesVirtualTimeOnOneCore(t *testing.T) {
	e, c := newTestCPU(t, 2)
	acct := NewAccount("a")
	var end time.Duration
	e.Go("w", func(p *sim.Proc) {
		th := c.NewThread(acct, 0)
		th.Exec(p, User, 10*time.Millisecond)
		end = p.Now()
	})
	e.Run()
	if end != 10*time.Millisecond {
		t.Fatalf("uncontended exec finished at %v, want 10ms", end)
	}
	if acct.Time(User) != 10*time.Millisecond {
		t.Fatalf("account user time = %v", acct.Time(User))
	}
}

func TestExecTimeSharingIsFair(t *testing.T) {
	// Two CPU-bound threads on one core should each take ~2x wall time.
	e, c := newTestCPU(t, 1)
	acct := NewAccount("a")
	done := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Go("w", func(p *sim.Proc) {
			th := c.NewThread(acct, MaskOf(0))
			th.Exec(p, User, 50*time.Millisecond)
			done[i] = p.Now()
		})
	}
	e.Run()
	for i, d := range done {
		if d < 99*time.Millisecond || d > 101*time.Millisecond {
			t.Fatalf("thread %d finished at %v, want ~100ms (fair sharing)", i, d)
		}
	}
}

func TestAffinityRestrictsCores(t *testing.T) {
	e, c := newTestCPU(t, 4)
	acct := NewAccount("a")
	e.Go("w", func(p *sim.Proc) {
		th := c.NewThread(acct, MaskOf(2))
		th.Exec(p, User, 20*time.Millisecond)
	})
	e.Run()
	util := c.UtilSnapshot()
	for core, busy := range util {
		if core == 2 && busy != 20*time.Millisecond {
			t.Fatalf("core 2 busy %v, want 20ms", busy)
		}
		if core != 2 && busy != 0 {
			t.Fatalf("core %d busy %v, want 0 (affinity violated)", core, busy)
		}
	}
}

func TestKernelThreadsStealIdleReservedCores(t *testing.T) {
	// The Fig 1a mechanism: a host-wide kernel thread spreads onto the
	// idle reserved cores of another pool; once that pool becomes busy,
	// the kernel thread's share of those cores collapses.
	e, c := newTestCPU(t, 4)
	kern := NewAccount("kernel")
	poolB := MaskOf(2, 3)

	// Two roaming kernel threads, each wanting 100ms of CPU.
	for i := 0; i < 4; i++ {
		e.Go("kflush", func(p *sim.Proc) {
			th := c.NewThread(kern, c.AllMask())
			th.Exec(p, Kernel, 100*time.Millisecond)
		})
	}
	start := c.UtilSnapshot()
	e.Run()
	window := e.Now()
	if got := c.Utilization(poolB, start, window); got < 1.9 {
		t.Fatalf("idle pool cores utilization = %.2f, want ~2.0 (kernel steals them)", got)
	}

	// Re-run with pool B busy: kernel threads must share, so pool B's
	// own work gets at least half of its cores.
	e2 := sim.NewEngine()
	c2 := New(e2, model.Default(), 4)
	kern2 := NewAccount("kernel")
	bAcct := NewAccount("poolB")
	for i := 0; i < 4; i++ {
		e2.Go("kflush", func(p *sim.Proc) {
			th := c2.NewThread(kern2, c2.AllMask())
			th.Exec(p, Kernel, 100*time.Millisecond)
		})
	}
	for i := 0; i < 2; i++ {
		e2.Go("bwork", func(p *sim.Proc) {
			th := c2.NewThread(bAcct, poolB)
			th.Exec(p, User, 100*time.Millisecond)
		})
	}
	e2.Run()
	if bAcct.Time(User) != 200*time.Millisecond {
		t.Fatalf("pool B user time = %v, want 200ms", bAcct.Time(User))
	}
}

func TestPinnedThreadsNeverLeaveTheirPool(t *testing.T) {
	e, c := newTestCPU(t, 4)
	acct := NewAccount("danaus")
	pool := MaskOf(0, 1)
	for i := 0; i < 3; i++ {
		e.Go("svc", func(p *sim.Proc) {
			th := c.NewThread(acct, pool)
			th.Exec(p, User, 30*time.Millisecond)
		})
	}
	e.Run()
	util := c.UtilSnapshot()
	if util[2] != 0 || util[3] != 0 {
		t.Fatalf("pinned threads leaked onto foreign cores: %v", util)
	}
	if util[0]+util[1] != 90*time.Millisecond {
		t.Fatalf("pool cores busy %v, want total 90ms", util[:2])
	}
}

func TestFIFOAdmissionUnderContention(t *testing.T) {
	e, c := newTestCPU(t, 1)
	acct := NewAccount("a")
	var order []int
	// Occupy the core, then queue three arrivals in a known order.
	e.Go("hog", func(p *sim.Proc) {
		th := c.NewThread(acct, 0)
		th.Exec(p, User, 10*time.Millisecond)
	})
	for i := 0; i < 3; i++ {
		i := i
		e.Go("w", func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * time.Microsecond)
			th := c.NewThread(acct, 0)
			th.Exec(p, User, time.Microsecond)
			order = append(order, i)
		})
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("admission order = %v, want FIFO", order)
		}
	}
}

func TestModeAndContextSwitchAccounting(t *testing.T) {
	e, c := newTestCPU(t, 1)
	acct := NewAccount("a")
	e.Go("w", func(p *sim.Proc) {
		th := c.NewThread(acct, 0)
		th.ModeSwitch(p)
		th.ModeSwitch(p)
		th.Chain(p, th.ContextSwitchStep())
	})
	e.Run()
	if acct.ModeSwitches() != 2 {
		t.Fatalf("mode switches = %d, want 2", acct.ModeSwitches())
	}
	if acct.ContextSwitches() != 1 {
		t.Fatalf("context switches = %d, want 1", acct.ContextSwitches())
	}
	wantKernel := 2*model.Default().ModeSwitchCost + model.Default().ContextSwitchCost
	if acct.Time(Kernel) != wantKernel {
		t.Fatalf("kernel time = %v, want %v", acct.Time(Kernel), wantKernel)
	}
}

func TestSnapshotDelta(t *testing.T) {
	a := NewAccount("a")
	a.addTime(User, time.Second)
	a.AddIOWait(time.Millisecond)
	s1 := a.Snapshot()
	a.addTime(Kernel, 2*time.Second)
	a.AddIOWait(time.Millisecond)
	d := a.Snapshot().Sub(s1)
	if d.UserTime != 0 || d.KernelTime != 2*time.Second || d.IOWait != time.Millisecond {
		t.Fatalf("delta = %+v", d)
	}
	if d.CPUTime != 2*time.Second {
		t.Fatalf("delta CPU = %v", d.CPUTime)
	}
}

func TestUtilizationWindow(t *testing.T) {
	e, c := newTestCPU(t, 2)
	acct := NewAccount("a")
	e.Go("w", func(p *sim.Proc) {
		th := c.NewThread(acct, MaskOf(0))
		th.Exec(p, User, 40*time.Millisecond)
	})
	start := c.UtilSnapshot()
	e.RunUntil(80 * time.Millisecond)
	got := c.Utilization(MaskOf(0, 1), start, 80*time.Millisecond)
	if got < 0.49 || got > 0.51 {
		t.Fatalf("utilization = %.3f, want ~0.5 (40ms busy over 80ms on 1 of 2 cores)", got)
	}
}

func TestStickyCorePreference(t *testing.T) {
	e, c := newTestCPU(t, 4)
	acct := NewAccount("a")
	e.Go("w", func(p *sim.Proc) {
		th := c.NewThread(acct, 0)
		th.Exec(p, User, time.Millisecond)
		first := th.LastCore()
		th.Exec(p, User, time.Millisecond)
		if th.LastCore() != first {
			t.Errorf("thread migrated from idle sticky core %d to %d", first, th.LastCore())
		}
	})
	e.Run()
}

func TestGroupMask(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, model.Default(), 6)
	if c.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", c.NumGroups())
	}
	if g := c.GroupMask(1); g != MaskOf(2, 3) {
		t.Fatalf("GroupMask(1) = %v", g)
	}
	if c.GroupOf(5) != 2 {
		t.Fatalf("GroupOf(5) = %d", c.GroupOf(5))
	}
}

// TestRoundRobinFairnessProperty: N equal CPU-bound threads on one core
// finish within one quantum of each other, for random N.
func TestRoundRobinFairnessProperty(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		e := sim.NewEngine()
		c := New(e, model.Default(), 1)
		acct := NewAccount("a")
		done := make([]time.Duration, n)
		for i := 0; i < n; i++ {
			i := i
			e.Go("w", func(p *sim.Proc) {
				th := c.NewThread(acct, MaskOf(0))
				th.Exec(p, User, 20*time.Millisecond)
				done[i] = p.Now()
			})
		}
		e.Run()
		var min, max time.Duration = 1 << 62, 0
		for _, d := range done {
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		// Round-robin staggers the final slices by at most one quantum
		// per contender.
		if max-min > time.Duration(n)*model.Default().Quantum {
			t.Fatalf("n=%d unfair finish spread: min=%v max=%v", n, min, max)
		}
		want := time.Duration(n) * 20 * time.Millisecond
		if max != want {
			t.Fatalf("n=%d total runtime %v, want %v (work conservation)", n, max, want)
		}
	}
}

// TestWorkConservation: total busy time equals total demanded CPU.
func TestWorkConservation(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, model.Default(), 3)
	acct := NewAccount("a")
	var demand time.Duration
	for i := 0; i < 7; i++ {
		d := time.Duration(i+1) * 3 * time.Millisecond
		demand += d
		e.Go("w", func(p *sim.Proc) {
			th := c.NewThread(acct, 0)
			th.Exec(p, User, d)
		})
	}
	e.Run()
	var busy time.Duration
	for _, b := range c.UtilSnapshot() {
		busy += b
	}
	if busy != demand {
		t.Fatalf("busy %v != demand %v", busy, demand)
	}
	if acct.CPUTime() != demand {
		t.Fatalf("account %v != demand %v", acct.CPUTime(), demand)
	}
}

// TestRunqueueRingMatchesSliceRemoval drives the per-mask runqueues
// through random enqueues, repins of threads with queued runs and
// releases of random cores, across the rings' lazy compaction
// threshold, on a 16-core host with eight disjoint two-core pool masks,
// the all-cores mask and a few overlapping ones. Every release must
// hand the core to the run a linear scan of one host-wide FIFO picks —
// the oldest queued run whose thread's mask allows the core, read at
// release time — or free it when there is none, and the queues must
// hold the same runs as that FIFO, each in its mask's queue in
// admission order.
func TestRunqueueRingMatchesSliceRemoval(t *testing.T) {
	const cores = 16
	_, c := newTestCPU(t, cores)
	acct := NewAccount("a")
	rng := rand.New(rand.NewSource(1))
	masks := []Mask{0, MaskRange(0, cores), MaskOf(1, 2), MaskRange(4, 12)}
	for i := 0; i < cores; i += 2 {
		masks = append(masks, MaskRange(i, i+2))
	}
	threads := make([]*Thread, 40)
	for i := range threads {
		threads[i] = c.NewThread(acct, masks[rng.Intn(len(masks))])
	}
	var ref []*execRun // the host-wide FIFO, in admission order
	repins := 0
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(8); {
		case k < 4 && len(ref) < 300:
			// The engine never runs: release only schedules the grant.
			r := c.getRun(nil, threads[rng.Intn(len(threads))])
			r.core = -1
			c.enqueue(r)
			ref = append(ref, r)
		case k == 4 && len(ref) > 0:
			ref[rng.Intn(len(ref))].t.SetAffinity(masks[rng.Intn(len(masks))])
			repins++
		default:
			core := rng.Intn(cores)
			c.cores[core].busy = true
			c.release(core)
			want := slices.IndexFunc(ref, func(r *execRun) bool { return r.t.mask.Has(core) })
			if want < 0 && c.cores[core].busy {
				t.Fatalf("step %d: core %d handed over with no eligible run queued", step, core)
			}
			for i, r := range ref {
				if got := r.core == core; got != (i == want) {
					t.Fatalf("step %d: core %d granted to run %d of the FIFO (granted: %v), want run %d", step, core, i, got, want)
				}
			}
			if want >= 0 {
				ref = slices.Delete(ref, want, want+1)
			}
		}
		checkRunqueues(t, step, c, ref)
	}
	if repins < 500 {
		t.Fatalf("only %d repins of threads with queued runs", repins)
	}
}

// checkRunqueues requires c's per-mask queues to hold exactly ref's
// runs: each in the queue of its thread's mask, which every core of the
// mask lists, in admission order, with matching per-thread and total
// counts.
func checkRunqueues(t *testing.T, step int, c *CPU, ref []*execRun) {
	t.Helper()
	if c.queued != len(ref) {
		t.Fatalf("step %d: %d runs queued, FIFO holds %d", step, c.queued, len(ref))
	}
	perThread := map[*Thread]int{}
	for _, r := range ref {
		perThread[r.t]++
	}
	total := 0
	for _, mq := range c.queues {
		for core := range c.cores {
			if listed := slices.Contains(c.coreQueue[core], mq); listed != mq.mask.Has(core) {
				t.Fatalf("step %d: queue %v listed under core %d: %v", step, mq.mask, core, listed)
			}
		}
		var want []*execRun
		for _, r := range ref {
			if r.t.mask == mq.mask {
				want = append(want, r)
			}
		}
		if mq.q.Len() != len(want) {
			t.Fatalf("step %d: queue %v holds %d runs, FIFO has %d of its mask", step, mq.mask, mq.q.Len(), len(want))
		}
		for i, r := range want {
			if mq.q.At(i) != r {
				t.Fatalf("step %d: queue %v order differs from the FIFO at %d", step, mq.mask, i)
			}
			if r.t.q != mq || r.t.queued != perThread[r.t] {
				t.Fatalf("step %d: thread of mask %v points at queue %v with %d queued, want %d", step, r.t.mask, r.t.q.mask, r.t.queued, perThread[r.t])
			}
		}
		total += len(want)
	}
	if total != len(ref) {
		t.Fatalf("step %d: queues hold %d runs, FIFO %d", step, total, len(ref))
	}
}

// TestMaskWithoutHostCorePanics checks that a thread cannot be given an
// affinity mask with no core on the host, at creation or by a repin,
// where it would queue forever.
func TestMaskWithoutHostCorePanics(t *testing.T) {
	_, c := newTestCPU(t, 4)
	acct := NewAccount("a")
	wantPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			msg, _ := recover().(string)
			if !strings.Contains(msg, "{5}") || !strings.Contains(msg, "4-core host") {
				t.Fatalf("%s: panic %q, want one naming mask {5} and the 4-core host", what, msg)
			}
		}()
		f()
	}
	wantPanic("NewThread", func() { c.NewThread(acct, MaskOf(5)) })
	th := c.NewThread(acct, MaskOf(3, 5))
	if th.Affinity() != MaskOf(3) {
		t.Fatalf("affinity %v, want the host cores {3}", th.Affinity())
	}
	wantPanic("SetAffinity", func() { th.SetAffinity(MaskOf(5)) })
	if th.Affinity() != MaskOf(3) {
		t.Fatalf("affinity %v after a refused repin, want {3}", th.Affinity())
	}
}

// historicalCPU is the oracle for TestExecMatchesHistoricalLoop: the
// per-Exec loop that Exec's run chain replaced. Each quantum it acquires
// a core, parking on a plain waiter until a release wakes it when none
// is idle, then sleeps min(quantum, rest), charges the slice and
// releases. It shares the real CPU's core state, tryAcquire and
// runqAggressor, which both schedulers use unchanged.
type historicalCPU struct {
	*CPU
	waiters sim.Queue[*histWaiter]
}

type histWaiter struct {
	p        *sim.Proc
	th       *Thread
	assigned int
}

func (h *historicalCPU) exec(p *sim.Proc, t *Thread, k TimeKind, d time.Duration) {
	for d > 0 {
		core := h.acquire(p, t)
		s := min(d, h.params.Quantum)
		p.Sleep(s)
		h.cores[core].busyTime += s
		t.acct.addTime(k, s)
		t.lastCore = core
		p.ReportWait("run", "cpu", "", 0, s)
		h.release(core)
		d -= s
	}
}

func (h *historicalCPU) acquire(p *sim.Proc, t *Thread) int {
	if core, ok := h.tryAcquire(t); ok {
		return core
	}
	since := h.eng.Now()
	aggr := ""
	if h.eng.HasWaitObserver() {
		aggr = h.runqAggressor(t)
	}
	w := &histWaiter{p: p, th: t, assigned: -1}
	h.waiters.Push(w)
	p.Park()
	p.ReportWait("runq", "cpu", aggr, 0, h.eng.Now()-since)
	return w.assigned
}

func (h *historicalCPU) release(core int) {
	for i := 0; i < h.waiters.Len(); i++ {
		w := h.waiters.At(i)
		if !w.th.mask.Has(core) {
			continue
		}
		h.waiters.Remove(i)
		w.assigned = core
		h.cores[core].occupant = w.th.acct
		h.eng.ScheduleWakeAfter(w.p, 0)
		return
	}
	h.cores[core].busy = false
	h.cores[core].occupant = nil
}

// execScenario is a random schedule of CPU charges: one proc per
// thread, each sleeping gaps[i] then running chains[i].
type execScenario struct {
	cores, accounts int
	freeModeSwitch  bool // a zero ModeSwitchCost: counter-only steps
	locks           int  // mutexes a chain may start by taking
	helpers         []execHelper
	threads         []execThreadSpec
}

// execHelper is a thread no proc owns, which chain steps may run on
// (as a FUSE reply runs on a daemon thread).
type execHelper struct {
	acct int
	mask Mask
}

type execThreadSpec struct {
	acct   int
	mask   Mask
	gaps   []time.Duration
	chains []chainSpec
}

// chainSpec is one chain: steps, step k on helper on[k] (-1: on the
// proc's own thread), after taking mutex lock (-1: none), which the
// entry of step unlockAt releases (len(steps): the caller, after the
// chain).
type chainSpec struct {
	steps    []Step
	on       []int
	lock     int
	unlockAt int
}

// execMode names how runExecScenario issues a chain's steps.
type execMode int

const (
	viaHistoricalLoop execMode = iota // Lock; per step: Unlock, bump the counter, historicalCPU.exec
	viaCalls                          // Lock; per step: Unlock, one Exec, ModeSwitch or context-switch Chain
	viaChain                          // one LockedChain (a Chain without a lock) per chain
	viaChainThen                      // one LockedChainThen per chain, whose continuation hands control back
)

type waitReport struct {
	kind, holder string
	proc         int
	start, dur   time.Duration
}

// execOutcome is everything TestExecMatchesHistoricalLoop requires the
// schedulers to agree on.
type execOutcome struct {
	ends   [][]time.Duration // per proc, the return time of each chain
	busy   []time.Duration   // per core
	cpu    []time.Duration   // per account
	counts []uint64          // per window tick, each account's mode and context switches
	spans  []obs.LockAgg     // per window tick, each proc's span lock waits
	waits  []waitReport
	events int
}

func scenarioParams(sc execScenario) *model.Params {
	params := model.Default()
	if sc.freeModeSwitch {
		params.ModeSwitchCost = 0
	}
	return params
}

func randomMask(rng *rand.Rand, cores int) Mask {
	var mask Mask // zero: anywhere
	if rng.Intn(3) > 0 {
		for mask == 0 {
			mask = Mask(rng.Intn(1 << cores))
		}
	}
	return mask
}

func randomExecScenario(rng *rand.Rand) execScenario {
	sc := execScenario{cores: 1 + rng.Intn(4), accounts: 1 + rng.Intn(3), freeModeSwitch: rng.Intn(4) == 0, locks: rng.Intn(3)}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		sc.helpers = append(sc.helpers, execHelper{acct: rng.Intn(sc.accounts), mask: randomMask(rng, sc.cores)})
	}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		acct := rng.Intn(sc.accounts)
		sc.threads = append(sc.threads, randomThread(rng, sc, acct, randomMask(rng, sc.cores)))
	}
	return sc
}

// randomPooledScenario is the shape of an 8-pool Danaus testbed: eight
// accounts, each with three to five threads (and maybe a helper) pinned
// to its own two cores of a 16-core host, plus one to three threads of
// a ninth account roaming the host, as kernel flushers do. Most runs
// that queue thus wait behind other pools' runs in a host-wide FIFO.
func randomPooledScenario(rng *rand.Rand) execScenario {
	const pools = 8
	sc := execScenario{cores: 2 * pools, accounts: pools + 1, freeModeSwitch: rng.Intn(4) == 0, locks: rng.Intn(3)}
	for pool := 0; pool < pools; pool++ {
		mask := MaskRange(2*pool, 2*pool+2)
		if rng.Intn(2) == 0 {
			sc.helpers = append(sc.helpers, execHelper{acct: pool, mask: mask})
		}
		for i, n := 0, 3+rng.Intn(3); i < n; i++ {
			sc.threads = append(sc.threads, randomThread(rng, sc, pool, mask))
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sc.threads = append(sc.threads, randomThread(rng, sc, pools, 0))
	}
	return sc
}

// randomThread returns a thread of acct and mask issuing one to six
// random chains of sc's charges, after random gaps.
func randomThread(rng *rand.Rand, sc execScenario, acct int, mask Mask) execThreadSpec {
	params := scenarioParams(sc)
	q := params.Quantum
	th := execThreadSpec{acct: acct, mask: mask}
	for j, m := 0, 1+rng.Intn(6); j < m; j++ {
		var gap time.Duration
		if rng.Intn(2) == 0 {
			gap = time.Duration(rng.Intn(3000)) * time.Microsecond
		}
		var ch chainSpec
		for k, l := 0, 1+rng.Intn(4); k < l; k++ {
			switch rng.Intn(4) {
			case 0:
				ch.steps = append(ch.steps, Step{Kind: Kernel, D: params.ModeSwitchCost, Count: CountModeSwitch})
				continue
			case 1:
				ch.steps = append(ch.steps, Step{Kind: Kernel, D: params.ContextSwitchCost, Count: CountContextSwitch})
				continue
			}
			var d time.Duration
			switch rng.Intn(5) {
			case 0: // IPC/syscall-sized
				d = time.Duration(1+rng.Intn(20)) * time.Microsecond
			case 1: // sub-quantum up to exactly one quantum
				d = time.Duration(1 + rng.Int63n(int64(q)))
			case 2: // zero-length: a no-op
			default: // multi-quantum, half of them a whole number of quanta
				d = time.Duration(1+rng.Intn(5))*q + time.Duration(rng.Int63n(int64(q)))*time.Duration(rng.Intn(2))
			}
			ch.steps = append(ch.steps, Charge(TimeKind(rng.Intn(2)), d))
		}
		ch.lock, ch.unlockAt = -1, len(ch.steps)
		if sc.locks > 0 && rng.Intn(2) == 0 {
			ch.lock = rng.Intn(sc.locks)
			ch.unlockAt = rng.Intn(len(ch.steps) + 1)
			if rng.Intn(2) == 0 {
				// Zero-length steps on both sides of the unlock.
				zero := Charge(User, 0)
				ch.steps = slices.Insert(ch.steps, ch.unlockAt, zero, zero)
				ch.unlockAt++
			}
		}
		for range ch.steps {
			on := -1
			if len(sc.helpers) > 0 && rng.Intn(3) == 0 {
				on = rng.Intn(len(sc.helpers))
			}
			ch.on = append(ch.on, on)
		}
		th.gaps = append(th.gaps, gap)
		th.chains = append(th.chains, ch)
	}
	return th
}

// runExecScenario runs sc on a fresh engine, issuing each chain as mode
// says. A callback ticks at a fixed period while any proc is live and
// reads every account's switch counters and every proc span's lock
// waits, as a measurement window boundary would.
func runExecScenario(sc execScenario, mode execMode, tick time.Duration) execOutcome {
	e := sim.NewEngine()
	c := New(e, scenarioParams(sc), sc.cores)
	h := &historicalCPU{CPU: c}
	rec := obs.New(obs.Config{Clock: e.Now})
	var out execOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events++
		}
	})
	e.SetWaitObserver(func(proc int, kind, _, holder string, _ int, start, dur time.Duration) {
		out.waits = append(out.waits, waitReport{kind, holder, proc, start, dur})
	})
	accts := make([]*Account, sc.accounts)
	for i := range accts {
		accts[i] = NewAccount(string(rune('a' + i)))
	}
	locks := make([]*sim.Mutex, sc.locks)
	for i := range locks {
		locks[i] = sim.NewMutex(e, "l")
	}
	helpers := make([]*Thread, len(sc.helpers))
	for i, hs := range sc.helpers {
		helpers[i] = c.NewThread(accts[hs.acct], hs.mask)
	}
	out.ends = make([][]time.Duration, len(sc.threads))
	for i, spec := range sc.threads {
		th := c.NewThread(accts[spec.acct], spec.mask)
		tenant := fmt.Sprint("w", i)
		e.Go(tenant, func(p *sim.Proc) {
			span := rec.StartSpan(p.ID(), tenant, "op")
			for j, ch := range spec.chains {
				p.Sleep(spec.gaps[j])
				var m *sim.Mutex
				if ch.lock >= 0 {
					m = locks[ch.lock]
				}
				on := func(k int) *Thread {
					if ch.on[k] < 0 {
						return th
					}
					return helpers[ch.on[k]]
				}
				if mode == viaChain || mode == viaChainThen {
					steps := slices.Clone(ch.steps)
					for k := range steps {
						steps[k].Thread = on(k)
						if k == ch.unlockAt {
							steps[k].Unlock = m
						}
					}
					if mode == viaChain {
						th.LockedChain(p, m, span, "l", steps...)
					} else {
						th.LockedChainThen(p, m, span, "l", p.ResumeHere, steps...)
						p.Park()
					}
				} else {
					if m != nil {
						start := p.Now()
						m.Lock(p)
						span.LockWait("l", p.Now()-start)
					}
					for k, s := range ch.steps {
						if m != nil && k == ch.unlockAt {
							m.Unlock(p)
						}
						sth := on(k)
						switch {
						case mode == viaHistoricalLoop:
							sth.acct.count(s.Count)
							h.exec(p, sth, s.Kind, s.D)
						case s.Count == CountModeSwitch:
							sth.ModeSwitch(p)
						case s.Count == CountContextSwitch:
							sth.Chain(p, sth.ContextSwitchStep())
						default:
							sth.Exec(p, s.Kind, s.D)
						}
					}
				}
				if m != nil && ch.unlockAt == len(ch.steps) {
					m.Unlock(p)
				}
				out.ends[i] = append(out.ends[i], p.Now())
			}
		})
	}
	var window func()
	window = func() {
		for _, a := range accts {
			out.counts = append(out.counts, a.ModeSwitches(), a.ContextSwitches())
		}
		for i := range sc.threads {
			out.spans = append(out.spans, *rec.Registry().Tenant(fmt.Sprint("w", i)).Lock("l"))
		}
		if e.LiveProcs() > 0 {
			e.After(tick, window)
		}
	}
	e.After(tick, window)
	e.Run()
	out.busy = c.UtilSnapshot()
	for _, a := range accts {
		out.cpu = append(out.cpu, a.CPUTime())
	}
	return out
}

// TestExecMatchesHistoricalLoop is a differential test of Exec, Chain
// and LockedChain against the per-quantum acquire/Sleep/release loop
// they replaced: over random core counts, masks, thread counts and
// chains of zero-length, few-microsecond, sub-quantum and multi-quantum
// charges and mode and context switches, with steps on other threads
// and chains that start by taking a mutex and release it as a step is
// entered (zero-length steps on either side) or after the chain, each
// chain issued as Lock plus consecutive Unlock/Exec/ModeSwitch calls
// and one-step context-switch Chains, and as one LockedChain, must
// return at the same time as under the loop, charge every core and
// account the same, show
// the same switch counters and span lock waits at every window
// boundary, report the same runqueue, run and lock waits in the same
// order, and process the same number of events; and so must each chain
// issued as a LockedChainThen whose continuation hands control back to
// the parked process with ResumeHere. The last scenarios
// pin eight pools of threads to two cores each next to roaming
// threads, so the per-mask runqueues are checked against the loop's
// single FIFO where runs of many masks queue at once.
func TestExecMatchesHistoricalLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 450; n++ {
		var sc execScenario
		if n < 400 {
			sc = randomExecScenario(rng)
		} else {
			sc = randomPooledScenario(rng)
		}
		tick := time.Duration(20+rng.Intn(300)) * time.Microsecond
		want := runExecScenario(sc, viaHistoricalLoop, tick)
		for _, mode := range []execMode{viaCalls, viaChain, viaChainThen} {
			got := runExecScenario(sc, mode, tick)
			for i := range want.ends {
				if !slices.Equal(got.ends[i], want.ends[i]) {
					t.Fatalf("scenario %d mode %d proc %d: chains return %v, historical loop %v", n, mode, i+1, got.ends[i], want.ends[i])
				}
			}
			if !slices.Equal(got.busy, want.busy) {
				t.Fatalf("scenario %d mode %d: core busy %v, historical loop %v", n, mode, got.busy, want.busy)
			}
			if !slices.Equal(got.cpu, want.cpu) {
				t.Fatalf("scenario %d mode %d: account CPU %v, historical loop %v", n, mode, got.cpu, want.cpu)
			}
			if !slices.Equal(got.spans, want.spans) {
				t.Fatalf("scenario %d mode %d: window span lock waits differ:\n got %v\nwant %v", n, mode, got.spans, want.spans)
			}
			if !slices.Equal(got.counts, want.counts) {
				t.Fatalf("scenario %d mode %d: window switch counts differ:\n got %v\nwant %v", n, mode, got.counts, want.counts)
			}
			if !slices.Equal(got.waits, want.waits) {
				t.Fatalf("scenario %d mode %d: wait reports differ:\n got %v\nwant %v", n, mode, got.waits, want.waits)
			}
			if got.events != want.events {
				t.Fatalf("scenario %d mode %d: %d engine events, historical loop %d", n, mode, got.events, want.events)
			}
		}
	}
}

// TestContendedExecParksOnce pins what the run chain buys: a
// multi-quantum Exec that loses its core at every quantum boundary, a
// multi-step Chain that loses it at every quantum and step boundary,
// and a LockedChain that waits for its mutex and switches thread,
// resume their process exactly once, and every Exec and Chain
// benchmark body, a contended LockedChain's included, allocates nothing
// once the run pool is warm.
func TestContendedExecParksOnce(t *testing.T) {
	e, c := newTestCPU(t, 1)
	acct := NewAccount("a")
	resumes := map[int]int{}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind == sim.TraceResume {
			resumes[ev.ProcID]++
		}
	})
	q := model.Default().Quantum
	ends := make([]time.Duration, 2)
	for i := range ends {
		th := c.NewThread(acct, MaskOf(0))
		e.Go("w", func(p *sim.Proc) {
			before := resumes[p.ID()]
			th.Exec(p, User, 5*q)
			ends[i] = p.Now()
			if n := resumes[p.ID()] - before; n != 1 {
				t.Errorf("proc %d resumed %d times during one Exec, want 1", p.ID(), n)
			}
		})
	}
	e.Run()
	// Alternating quanta: the first thread's last slice is the 9th.
	if ends[0] != 9*q || ends[1] != 10*q {
		t.Fatalf("Execs ended at %v, want [%v %v] (core lost at each boundary)", ends, 9*q, 10*q)
	}

	// A chain of steps, each losing the core to the other thread's
	// chain, still parks once.
	e, c = newTestCPU(t, 1)
	resumes = map[int]int{}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind == sim.TraceResume {
			resumes[ev.ProcID]++
		}
	})
	for range 2 {
		th := c.NewThread(acct, MaskOf(0))
		e.Go("w", func(p *sim.Proc) {
			for range 3 {
				before := resumes[p.ID()]
				th.Chain(p, th.ModeSwitchStep(), Charge(User, 2*q), th.ContextSwitchStep(),
					Charge(Kernel, 0), Charge(Kernel, q+time.Microsecond), th.ModeSwitchStep())
				if n := resumes[p.ID()] - before; n != 1 {
					t.Errorf("proc %d resumed %d times during one Chain, want 1", p.ID(), n)
				}
			}
		})
	}
	e.Run()
	if got, want := acct.ModeSwitches(), uint64(2*3*2); got != want {
		t.Fatalf("chains charged %d mode switches, want %d", got, want)
	}

	// A locked chain that queues for its mutex, and a chain that hands
	// over to another thread, still park once.
	e, c = newTestCPU(t, 1)
	resumes = map[int]int{}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind == sim.TraceResume {
			resumes[ev.ProcID]++
		}
	})
	m := sim.NewMutex(e, "m")
	other := c.NewThread(acct, MaskOf(0))
	for range 3 {
		th := c.NewThread(acct, MaskOf(0))
		e.Go("w", func(p *sim.Proc) {
			before := resumes[p.ID()]
			th.LockedChain(p, m, nil, "", Charge(User, q), th.ContextSwitchStep(),
				Step{Kind: Kernel, D: q, Thread: other, Unlock: m}, th.ModeSwitchStep())
			if n := resumes[p.ID()] - before; n != 1 {
				t.Errorf("proc %d resumed %d times during one LockedChain, want 1", p.ID(), n)
			}
		})
	}
	e.Run()
	if m.Locked() || m.Stats().Contended != 2 {
		t.Fatalf("mutex locked %v after %d contended acquisitions, want unlocked after 2", m.Locked(), m.Stats().Contended)
	}

	allocgate.Check(t, []allocgate.Case{
		{Name: "ExecCoalescedUncontended", Body: execCoalescedUncontended, N: 1000},
		{Name: "ExecSubQuantum", Body: execSubQuantum, N: 10000},
		{Name: "ExecContended", Body: execContended, N: 1000},
		{Name: "ExecContendedSubQuantum", Body: execContendedSubQuantum, N: 10000},
		{Name: "ExecChainContended", Body: execChainContended, N: 10000},
		{Name: "ExecLockedChainContended", Body: execLockedChainContended, N: 10000},
		{Name: "ExecContendedManyMasks", Body: execContendedManyMasks, N: 10000},
		{Name: "ExecRepinQueued", Body: execRepinQueued, N: 10000},
	})
}
