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
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// Scale selects experiment sizing (see workloads.Scale, which the
// scenario fuzzer shares).
type Scale = workloads.Scale

// Predefined scales.
var (
	// QuickScale is for unit tests and -short benchmarks.
	QuickScale = workloads.QuickScale
	// DefaultScale balances fidelity and wall time for the harness.
	DefaultScale = workloads.DefaultScale
	// PaperScale matches the paper's parameters (120 s runs).
	PaperScale = workloads.PaperScale
)

// Observer, when non-nil, is invoked on a freshly built testbed before
// any pool exists — the hook through which danausbench attaches an
// observability recorder (core.Testbed.AttachObserver) to the runs of
// an experiment. The figures and the fault, crash, overload and trace
// sweeps pass it to newRig; blamesweep and monitorsweep attach their
// own recorder and the cost-model ablations attach none. Nil keeps
// experiments observation-free.
var Observer func(tb *core.Testbed)

// rig bundles a testbed under experiment control.
type rig struct {
	tb *core.Testbed
}

// newRig builds every experiment testbed: cores, cost model and, when
// protect is set, the overload-protection policy (admission, breaker,
// brownout). attach runs on the bare testbed before any pool exists,
// where an observer must attach: Observer for the harness-observed
// runs, a sweep's own recorder, or nil to observe nothing.
func newRig(cores int, params *model.Params, protect bool, attach func(tb *core.Testbed)) *rig {
	var pol *core.OverloadPolicy
	if protect {
		pol = &core.OverloadPolicy{RetrySeed: 1}
	}
	tb := core.NewTestbed(core.TestbedConfig{Cores: cores, Params: params, Overload: pol})
	if attach != nil {
		attach(tb)
	}
	return &rig{tb: tb}
}

// attachRecorder attaches a plain recorder to a bare testbed. Its
// SampleInterval is zero, so it adds no engine events and the schedule
// is event-for-event the unobserved one.
func attachRecorder(tb *core.Testbed) {
	tb.AttachObserver(obs.New(obs.Config{Clock: tb.Eng.Now}))
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
// i (cores 2i, 2i+1), named fls<i>.
func (r *rig) flsContainer(i int, config core.Configuration, scale Scale) *core.Container {
	name := fmt.Sprintf("fls%d", i)
	upper := "/containers/" + name
	if err := r.tb.Cluster.ProvisionDir(upper); err != nil {
		panic(err)
	}
	pool := r.tb.NewPool(name, cpu.MaskRange(2*i, 2*i+2), scale.PoolMem())
	c, err := pool.NewContainer(name, core.MountSpec{Config: config, UpperDir: upper})
	if err != nil {
		panic(err)
	}
	return c
}

// containment builds the two-pool layout of the containment sweeps:
// the victim in pool 0 (fls0) and the bystander or aggressor in pool 1
// (fls1), both mounting config.
func (r *rig) containment(config core.Configuration, scale Scale) (victim, other *core.Container) {
	return r.flsContainer(0, config, scale), r.flsContainer(1, config, scale)
}

// clones creates n scaleup clones <prefix>000, <prefix>001, ... in
// pool: private upper directories over the shared lower image, every
// clone after the first sharing its client and kernel mount.
func (r *rig) clones(pool *core.Pool, config core.Configuration, prefix, lower string, n int) []*core.Container {
	conts := make([]*core.Container, n)
	for i := range conts {
		name := fmt.Sprintf("%s%03d", prefix, i)
		upper := "/containers/" + name
		if err := r.tb.Cluster.ProvisionDir(upper); err != nil {
			panic(err)
		}
		spec := core.MountSpec{Config: config, UpperDir: upper, LowerDir: lower}
		if i > 0 {
			spec.SharedClient = conts[0].Mount.Client
			spec.SharedKernelMount = conts[0].Mount.KernelMount
		}
		c, err := pool.NewContainer(name, spec)
		if err != nil {
			panic(err)
		}
		conts[i] = c
	}
	return conts
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
