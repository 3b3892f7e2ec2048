package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ipc"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// AblationRow compares a design choice against its removal.
type AblationRow struct {
	Name     string
	Baseline float64 // metric with the design as shipped
	Ablated  float64 // metric with the choice removed/changed
	Unit     string
}

// String renders the row for the harness.
func (r AblationRow) String() string {
	return fmt.Sprintf("%-24s baseline=%.1f%s ablated=%.1f%s (x%.2f)",
		r.Name, r.Baseline, r.Unit, r.Ablated, r.Unit, r.Ablated/r.Baseline)
}

// RunAblationClientLock reproduces the paper's §6.3.2 preliminary
// experiment: removing the coarse client_lock from the user-level
// client (fine-grained locking) lifts the cached sequential read
// throughput of Danaus.
func RunAblationClientLock(scale Scale) AblationRow {
	run := func(lockFraction float64) float64 {
		params := scale.Params()
		params.ClientLockCopyFraction = lockFraction
		r := newRig(2, params, false, nil)
		cont := r.flsContainer(0, core.ConfigD, scale)
		w := &workloads.SeqIO{
			FS: cont.Mount.Default, Dir: "/seq", NewThread: cont.NewThread,
		}
		w.Defaults(scale.Factor)
		r.runMaster(func(p *sim.Proc) {
			prepare(p, r.tb.Eng, prepFor(cont.NewThread, w))
			clock := scale.Clock(r.tb.Eng)
			g := workloads.NewGroup(r.tb.Eng)
			w.Run(g, clock)
			g.Wait(p)
		})
		return w.Stats.ThroughputMBps(scale.Duration)
	}
	base := run(model.Default().ClientLockCopyFraction)
	return AblationRow{
		Name:     "client_lock removal",
		Baseline: base,
		Ablated:  run(0), // refactored fine-grained client
		Unit:     "MB/s",
	}
}

// RunAblationWakeupElision quantifies the §3.5 polling service threads:
// with the poll window disabled, every IPC request pays the wakeup
// context switches, inflating Danaus's per-op cost.
func RunAblationWakeupElision(scale Scale) AblationRow {
	run := func(disablePolling bool) float64 {
		params := scale.Params()
		if disablePolling {
			params.IPCPollWindow = 0
		}
		r := newRig(2, params, false, nil)
		cont := r.flsContainer(0, core.ConfigD, scale)
		var switches float64
		r.runMaster(func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: cont.NewThread()}
			h, err := cont.Mount.Default.Open(ctx, "/f", vfsapi.CREATE|vfsapi.RDWR)
			if err != nil {
				panic(err)
			}
			for i := 0; i < 2000; i++ {
				h.Write(ctx, int64(i%16)<<10, 1<<10)
			}
			h.Close(ctx)
			switches = float64(cont.Pool.Acct.ContextSwitches())
		})
		return switches
	}
	return AblationRow{
		Name:     "IPC wakeup elision",
		Baseline: run(false),
		Ablated:  run(true),
		Unit:     " switches",
	}
}

// RunAblationThreadPinning quantifies the §3.5 thread-to-queue pinning:
// without it, application threads hop across core groups on every
// request.
func RunAblationThreadPinning(scale Scale) AblationRow {
	run := func(noPinning bool) float64 {
		params := scale.Params()
		r := newRig(8, params, false, nil)
		if err := r.tb.Cluster.ProvisionDir("/containers/abl"); err != nil {
			panic(err)
		}
		pool := r.tb.NewPool("abl", r.tb.CPU.AllMask(), scale.PoolMem())
		cont, err := pool.NewContainer("abl", core.MountSpec{Config: core.ConfigD, UpperDir: "/containers/abl"})
		if err != nil {
			panic(err)
		}
		fs := cont.Mount.Default
		if noPinning {
			// Rebuild the transport with pinning disabled, serving the
			// same filesystem instance.
			fs = ipc.New(r.tb.Eng, r.tb.CPU, params, cont.Mount.IPC.Inner(), ipc.Config{
				Name: "abl-nopin", Mask: pool.Mask, Acct: pool.Acct, NoPinning: true,
			})
		}
		w := &workloads.SeqIO{FS: fs, Dir: "/seq", Threads: 8, NewThread: cont.NewThread}
		w.Defaults(scale.Factor)
		r.runMaster(func(p *sim.Proc) {
			prepare(p, r.tb.Eng, prepFor(cont.NewThread, w))
			clock := scale.Clock(r.tb.Eng)
			g := workloads.NewGroup(r.tb.Eng)
			w.Run(g, clock)
			g.Wait(p)
		})
		return w.Stats.ThroughputMBps(scale.Duration)
	}
	return AblationRow{
		Name:     "IPC thread pinning",
		Baseline: run(false),
		Ablated:  run(true),
		Unit:     "MB/s",
	}
}

// RunAblationUnionIntegration quantifies the §3.1 filesystem
// integration principle: the Danaus union invoking the client through
// function calls versus crossing a FUSE transport between the two
// libservices (what F/F does).
func RunAblationUnionIntegration(run Run) AblationRow {
	startup := func(cfg core.Configuration) float64 {
		row := RunStartupScaleup(cfg, 8, run)
		return row.RealTime.Seconds() * 1000
	}
	return AblationRow{
		Name:     "union-client integration",
		Baseline: startup(core.ConfigD),  // function calls between libservices
		Ablated:  startup(core.ConfigFF), // a FUSE crossing between the layers
		Unit:     "ms",
	}
}

// AllAblations runs the design-choice ablations DESIGN.md calls out.
func AllAblations(run Run) []AblationRow {
	return []AblationRow{
		RunAblationClientLock(run.Scale),
		RunAblationWakeupElision(run.Scale),
		RunAblationThreadPinning(run.Scale),
		RunAblationUnionIntegration(run),
		RunAblationImagePull(run),
	}
}

// RunAblationImagePull contrasts the classic container-image flow (pull
// the image from the registry to local disk, expand it, then start)
// with Danaus serving root images directly from the shared filesystem
// with on-demand file transfers — the §8 "images and data on shared
// filesystem" lesson.
func RunAblationImagePull(run Run) AblationRow {
	// Shared-filesystem start: the Fig 8 startup over D at 8 clones.
	direct := RunStartupScaleup(core.ConfigD, 8, run)

	// Classic flow: transfer the image bytes from the registry (the
	// cluster stands in) to the local disks and expand, once per
	// container, before the same startup runs from the local copy.
	r := newRig(4, run.Params(), false, run.Attach)
	params := r.tb.Params
	imageBytes := params.ExecBinaryBytes + params.MmapLibraryBytes +
		params.StartupAppFileBytes + int64(params.StartupOpCount)*(2<<10)
	var pullTime float64
	r.runMaster(func(p *sim.Proc) {
		pool := r.tb.NewPool("pull", r.tb.CPU.AllMask(), run.PoolMem())
		th := r.tb.CPU.NewThread(pool.Acct, pool.Mask)
		ctx := vfsapi.Ctx{P: p, T: th}
		start := r.tb.Eng.Now()
		for i := 0; i < 8; i++ {
			// Download: registry -> host over the network.
			if err := r.tb.Cluster.ProvisionDir("/registry"); err != nil {
				panic(err)
			}
			if err := r.tb.Cluster.Provision(fmt.Sprintf("/registry/layer%02d", i), imageBytes); err != nil {
				panic(err)
			}
			info, ino, err := r.tb.Cluster.MetaLookup(ctx, fmt.Sprintf("/registry/layer%02d", i))
			if err != nil {
				panic(err)
			}
			r.tb.Cluster.Read(ctx, ino, 0, info.Size)
			// Expand onto the local disks.
			if err := r.tb.LocalStore.Provision(fmt.Sprintf("/var/lib/images/%02d", i), 0); err != nil {
				panic(err)
			}
			r.tb.LocalArray.Access(p, int64(i)<<30, imageBytes, true)
		}
		pullTime = (r.tb.Eng.Now() - start).Seconds() * 1000
	})

	return AblationRow{
		Name:     "image pull vs shared FS",
		Baseline: direct.RealTime.Seconds() * 1000, // start 8 clones directly
		Ablated:  pullTime,                         // just the pull+expand, before any start
		Unit:     "ms",
	}
}
