package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// StartupRow is one point of Fig 8: real time to start N cloned
// webserver containers in a single pool, and the context switches the
// startup generated (Fig 8b).
type StartupRow struct {
	Config          core.Configuration
	Containers      int
	RealTime        time.Duration
	ContextSwitches uint64
}

// String renders the row for the harness.
func (r StartupRow) String() string {
	return fmt.Sprintf("%-5s n=%-4d real=%-14v ctxsw=%d", r.Config, r.Containers, r.RealTime, r.ContextSwitches)
}

// Fig8Counts returns the paper's container sweep (1-256).
func Fig8Counts() []int { return []int{1, 4, 16, 64, 256} }

// Fig8Configs lists the Fig 8 comparison set.
func Fig8Configs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigKK, core.ConfigFK, core.ConfigFF}
}

// RunStartupScaleup executes one Fig 8 point: start `clones` cloned
// Lighttpd containers over a shared client in one pool and measure the
// time until every webserver is ready.
func RunStartupScaleup(config core.Configuration, clones int, scale Scale) StartupRow {
	cores := 16
	if cores > 2*clones {
		cores = 2 * clones
	}
	if cores < 4 {
		cores = 4
	}
	r := newRig(cores, scale.Params(), false, Observer)
	row := StartupRow{Config: config, Containers: clones}

	// Shared webserver image on the cluster.
	if err := workloads.ProvisionImage(r.tb.Params, "/images/lighttpd", r.tb.Cluster.Provision); err != nil {
		panic(err)
	}
	pool := r.tb.NewPool("web", r.tb.CPU.AllMask(), scale.PoolMem()*8)

	containers := r.clones(pool, config, "web", "/images/lighttpd", clones)

	r.runMaster(func(p *sim.Proc) {
		start := r.tb.Eng.Now()
		switchStart := pool.Acct.ContextSwitches()
		clock := workloads.Clock{Eng: r.tb.Eng, From: start}
		g := workloads.NewGroup(r.tb.Eng)
		for _, cont := range containers {
			w := &workloads.Startup{
				Default:   cont.Mount.Default,
				Legacy:    cont.Mount.Legacy,
				Params:    r.tb.Params,
				NewThread: cont.NewThread,
				Stats:     workloads.NewStats(),
			}
			w.Run(g, clock)
		}
		g.Wait(p)
		row.RealTime = r.tb.Eng.Now() - start
		row.ContextSwitches = pool.Acct.ContextSwitches() - switchStart
	})
	return row
}

// FileIORow is one point of Fig 11: timespan and maximum memory of the
// Fileappend or Fileread scaleup.
type FileIORow struct {
	Config     core.Configuration
	Containers int
	Timespan   time.Duration
	MaxMemory  int64
}

// String renders the row for the harness.
func (r FileIORow) String() string {
	return fmt.Sprintf("%-5s n=%-3d timespan=%-14v maxmem=%dMB", r.Config, r.Containers, r.Timespan, r.MaxMemory>>20)
}

// Fig11Counts returns the paper's container sweep (1-32).
func Fig11Counts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig11Configs lists the Fig 11 comparison set.
func Fig11Configs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigKK, core.ConfigFF, core.ConfigFPFP}
}

// RunFileIOScaleup executes one Fig 11 point: `clones` cloned
// containers over a shared client, each appending to (append=true) or
// reading (append=false) a large file from the shared lower branch.
func RunFileIOScaleup(config core.Configuration, clones int, append bool, scale Scale) FileIORow {
	cores := 2 * clones
	if cores < 4 {
		cores = 4
	}
	if cores > 64 {
		cores = 64
	}
	r := newRig(cores, scale.Params(), false, Observer)
	row := FileIORow{Config: config, Containers: clones}

	// The shared lower branch holds the 2 GB target file (scaled).
	fileSize := int64(float64(2<<30) * scale.Factor)
	if fileSize < 16<<20 {
		fileSize = 16 << 20
	}
	if err := r.tb.Cluster.ProvisionDir("/images/data"); err != nil {
		panic(err)
	}
	r.tb.Cluster.Provision("/images/data/blob", fileSize)

	// A single pool holding every clone (the paper: 64 cores, 200 GB).
	pool := r.tb.NewPool("big", r.tb.CPU.AllMask(), scale.PoolMem()*int64(clones)*2)

	containers := r.clones(pool, config, "fio", "/images/data", clones)

	r.runMaster(func(p *sim.Proc) {
		start := r.tb.Eng.Now()
		clock := workloads.Clock{Eng: r.tb.Eng, From: start}
		g := workloads.NewGroup(r.tb.Eng)
		for _, cont := range containers {
			if append {
				w := &workloads.FileAppend{
					FS:        cont.Mount.Default,
					Path:      "/blob",
					NewThread: cont.NewThread,
					Stats:     workloads.NewStats(),
				}
				w.Run(g, clock)
			} else {
				w := &workloads.FileRead{
					FS:        cont.Mount.Default,
					Path:      "/blob",
					NewThread: cont.NewThread,
					Stats:     workloads.NewStats(),
				}
				w.Run(g, clock)
			}
		}
		g.Wait(p)
		row.Timespan = r.tb.Eng.Now() - start
		row.MaxMemory = pool.Memory.MaxSum()
	})
	return row
}
