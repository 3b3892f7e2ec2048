// Package experiments reproduces every figure of the paper's
// evaluation (§2.1 motivation and §6 evaluation): each Fig* runner
// builds the Fig 5 testbed, deploys container pools with the requested
// Table 1 configurations, drives the Table 2 workloads, and returns
// typed result rows mirroring the published plots.
package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// Scale selects experiment sizing. The discrete-event model preserves
// contention shape under scaling, so the default test scale runs in
// seconds of wall time while PaperScale matches the published
// parameters.
type Scale struct {
	// Factor scales dataset sizes (files, bytes).
	Factor float64
	// Duration is the measured window of timed workloads.
	Duration time.Duration
	// Warmup precedes measurement.
	Warmup time.Duration
}

// Predefined scales.
var (
	// QuickScale is for unit tests and -short benchmarks.
	QuickScale = Scale{Factor: 0.02, Duration: 2 * time.Second, Warmup: 500 * time.Millisecond}
	// DefaultScale balances fidelity and wall time for the harness.
	DefaultScale = Scale{Factor: 0.1, Duration: 8 * time.Second, Warmup: time.Second}
	// PaperScale matches the paper's parameters (120 s runs).
	PaperScale = Scale{Factor: 1.0, Duration: 120 * time.Second, Warmup: 5 * time.Second}
)

// PoolMem returns the pool memory reservation at the given scale. The
// paper reserves 8 GB per pool; scaling it with the datasets keeps the
// dirty-threshold and cache-pressure dynamics inside short windows.
func (s Scale) PoolMem() int64 {
	m := int64(float64(8<<30) * s.Factor)
	if m < 128<<20 {
		m = 128 << 20
	}
	return m
}

// Params derives a cost model whose writeback time constants are
// scaled with the experiment: preserving the ratio of file lifetime to
// the flusher intervals keeps the dirty-data dynamics of the paper's
// 120 s runs inside short windows.
func (s Scale) Params() *model.Params {
	p := model.Default()
	if s.Factor < 1 {
		// File lifetime in the Fileserver fileset scales with Factor,
		// so the writeback constants scale with it to preserve the
		// fraction of dirty data that lives long enough to be flushed.
		iv := time.Duration(float64(p.WritebackInterval) * s.Factor)
		if iv < 5*time.Millisecond {
			iv = 5 * time.Millisecond
		}
		if iv < p.WritebackInterval {
			p.WritebackInterval = iv
			p.DirtyExpire = 5 * iv
		}
	}
	return p
}

// Observer, when non-nil, is invoked on every freshly built testbed
// before any pool exists — the hook through which danausbench attaches
// an observability recorder (core.Testbed.AttachObserver) to the runs
// of an experiment. Nil keeps experiments observation-free.
var Observer func(tb *core.Testbed)

// rig bundles a testbed under experiment control.
type rig struct {
	tb *core.Testbed
}

func newScaledRig(cores int, scale Scale) *rig {
	tb := core.NewTestbed(core.TestbedConfig{Cores: cores, Params: scale.Params()})
	if Observer != nil {
		Observer(tb)
	}
	return &rig{tb: tb}
}

// runMaster executes fn as the orchestration process and drains the
// engine afterwards.
func (r *rig) runMaster(fn func(p *sim.Proc)) {
	r.tb.Eng.Go("master", func(p *sim.Proc) {
		fn(p)
		r.tb.Stop()
	})
	r.tb.Eng.Run()
}

// flsContainer provisions directories and creates one Fileserver
// container of the given configuration in its own 2-core pool at index
// i (cores 2i, 2i+1).
func (r *rig) flsContainer(i int, config core.Configuration, scale Scale) (*core.Pool, *core.Container, error) {
	name := fmt.Sprintf("fls%d", i)
	upper := "/containers/" + name
	if err := r.tb.Cluster.ProvisionDir(upper); err != nil {
		return nil, nil, err
	}
	pool := r.tb.NewPool(name, cpu.MaskRange(2*i, 2*i+2), scale.PoolMem())
	c, err := pool.NewContainer(name, core.MountSpec{Config: config, UpperDir: upper})
	if err != nil {
		return nil, nil, err
	}
	return pool, c, nil
}

// newFileserver builds a Fileserver workload bound to a container.
func newFileserver(c *core.Container, scale Scale, seed int64) *workloads.Fileserver {
	w := &workloads.Fileserver{
		FS:        c.Mount.Default,
		Dir:       "/flsdata",
		NewThread: c.NewThread,
		Seed:      seed,
	}
	w.Defaults(scale.Factor)
	return w
}

// preparer is a workload that lays out its dataset before the
// measured run.
type preparer interface {
	Prepare(ctx vfsapi.Ctx) error
	Run(g *workloads.Group, clock workloads.Clock)
}

// prepFor returns the preparation step of w: Prepare on a fresh thread
// from newThread.
func prepFor(newThread func() *cpu.Thread, w preparer) func(pp *sim.Proc) {
	return func(pp *sim.Proc) {
		if err := w.Prepare(vfsapi.Ctx{P: pp, T: newThread()}); err != nil {
			panic(err)
		}
	}
}

// prepare runs the given preparation functions concurrently (each on
// its own process) and waits for all of them.
func prepare(p *sim.Proc, eng *sim.Engine, fns ...func(pp *sim.Proc)) {
	g := workloads.NewGroup(eng)
	for i, fn := range fns {
		fn := fn
		g.Go(fmt.Sprintf("prep%d", i), fn)
	}
	g.Wait(p)
}

// kernelLocalFS wraps the host's local ext4 mount with syscall entry
// costs (the path RND and WBS take to their local datasets).
func kernelLocalFS(tb *core.Testbed) vfsapi.FileSystem {
	return kern.NewSyscalls(tb.Kernel, tb.LocalFS)
}

// clockFor starts a measurement window at now+warmup.
func clockFor(eng *sim.Engine, scale Scale) workloads.Clock {
	now := eng.Now()
	return workloads.Clock{
		Eng:  eng,
		From: now + scale.Warmup,
		Stop: now + scale.Warmup + scale.Duration,
	}
}

// utilWindow samples the utilization of mask between the clock's
// measurement bounds, invoking done with the percentage-of-one-core sum
// (e.g. 2 fully busy cores = 200).
func utilWindow(tb *core.Testbed, clock workloads.Clock, mask cpu.Mask, out *float64) {
	var snap []time.Duration
	tb.Eng.After(clock.From-tb.Eng.Now(), func() {
		snap = tb.CPU.UtilSnapshot()
	})
	tb.Eng.After(clock.Stop-tb.Eng.Now(), func() {
		*out = tb.CPU.Utilization(mask, snap, clock.Stop-clock.From) * 100
	})
}

// lockWindow resets kernel lock statistics at measurement start and
// captures per-request wait/hold at the end.
func lockWindow(tb *core.Testbed, clock workloads.Clock, wait, hold *time.Duration) {
	tb.Eng.After(clock.From-tb.Eng.Now(), func() {
		tb.Kernel.ResetLockStats()
	})
	tb.Eng.After(clock.Stop-tb.Eng.Now(), func() {
		s := tb.Kernel.LockStats()
		*wait = s.AvgWait()
		*hold = s.AvgHold()
	})
}
