package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ScaleoutRow is one point of the Fig 9 / Fig 10 scaleout curves.
type ScaleoutRow struct {
	Config core.Configuration
	Pools  int
	// ThroughputMBps is the aggregate throughput across all pools.
	ThroughputMBps float64
	// UserPct/KernelPct are mean per-pool core utilization percentages
	// (of the pools' own reserved cores).
	UserPct   float64
	KernelPct float64
	// IOWait is total time application threads spent blocked in kernel
	// I/O paths (the paper's iowait bars).
	IOWait time.Duration
}

// RunSeqIOScaleout executes one Fig 9 point: `pools` container pools,
// each with a private client of the given configuration, running
// Seqwrite (write=true) or cached Seqread (write=false).
func RunSeqIOScaleout(config core.Configuration, pools int, write bool, run Run) ScaleoutRow {
	return runScaleout(config, pools, run, func(_ int, c *core.Container) (preparer, *workloads.Stats) {
		w := &workloads.SeqIO{
			FS:        c.Mount.Default,
			Dir:       "/seq",
			Write:     write,
			NewThread: c.NewThread,
		}
		w.Defaults(run.Factor)
		return w, w.Stats
	})
}

// RunFileserverScaleout executes one Fig 10 point: `pools` pools each
// running a Fileserver instance over a private client.
func RunFileserverScaleout(config core.Configuration, pools int, run Run) ScaleoutRow {
	return runScaleout(config, pools, run, func(i int, c *core.Container) (preparer, *workloads.Stats) {
		w := newFileserver(c, run.Scale, int64(i)+1)
		return w, w.Stats
	})
}

// runScaleout runs one scaleout point: `pools` pools, each with a
// private client of the given configuration running the workload
// newWorkload builds for its container, and reports aggregate
// throughput plus the pools' core utilization and iowait.
func runScaleout(config core.Configuration, pools int, run Run, newWorkload func(i int, c *core.Container) (preparer, *workloads.Stats)) ScaleoutRow {
	r := newRig(2*pools, run.Params(), false, run.Attach)
	row := ScaleoutRow{Config: config, Pools: pools}

	type inst struct {
		c     *core.Container
		w     preparer
		stats *workloads.Stats
	}
	insts := make([]inst, pools)
	for i := range insts {
		cont := r.flsContainer(i, config, run.Scale)
		w, stats := newWorkload(i, cont)
		insts[i] = inst{c: cont, w: w, stats: stats}
	}

	r.runMaster(func(p *sim.Proc) {
		preps := make([]func(pp *sim.Proc), len(insts))
		for i, in := range insts {
			preps[i] = prepFor(in.c.NewThread, in.w)
		}
		prepare(p, r.tb.Eng, preps...)

		clock := run.Clock(r.tb.Eng)
		var userStart, kernStart, iowaitStart time.Duration
		r.tb.Eng.After(clock.From-r.tb.Eng.Now(), func() {
			for _, in := range insts {
				s := in.c.Pool.Acct.Snapshot()
				userStart += s.UserTime
				kernStart += s.KernelTime
				iowaitStart += s.IOWait
			}
		})

		g := workloads.NewGroup(r.tb.Eng)
		for _, in := range insts {
			in.w.Run(g, clock)
		}
		g.Wait(p)

		var user, kern, iowait time.Duration
		for _, in := range insts {
			s := in.c.Pool.Acct.Snapshot()
			user += s.UserTime
			kern += s.KernelTime
			iowait += s.IOWait
		}
		window := clock.Window()
		totalCores := float64(2 * pools)
		row.UserPct = float64(user-userStart) / float64(window) / totalCores * 100
		row.KernelPct = float64(kern-kernStart) / float64(window) / totalCores * 100
		row.IOWait = iowait - iowaitStart
		for _, in := range insts {
			row.ThroughputMBps += in.stats.ThroughputMBps(window)
		}
	})
	return row
}

// Fig9PoolCounts returns the paper's pool sweep for Fig 9.
func Fig9PoolCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig10PoolCounts returns the paper's pool sweep for Fig 10.
func Fig10PoolCounts() []int { return []int{1, 2, 4, 8, 16} }

// String renders a row for the harness.
func (r ScaleoutRow) String() string {
	return fmt.Sprintf("%-4s pools=%-3d %9.1f MB/s  user %5.1f%% kernel %5.1f%%  iowait %v",
		r.Config, r.Pools, r.ThroughputMBps, r.UserPct, r.KernelPct, r.IOWait)
}
