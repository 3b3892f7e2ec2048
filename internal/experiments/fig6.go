package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// InterferenceRow is one bar (plus companion lines) of Fig 1 and
// Fig 6a/6b: a Fileserver deployment alone or next to a neighbour.
type InterferenceRow struct {
	// Label is the paper's workload symbol, e.g. "7FLS/K+1RND".
	Label string
	// FLSThroughputMBps is the aggregate Fileserver throughput.
	FLSThroughputMBps float64
	// NeighborCoreUtilPct is the utilization of the NEIGHBOUR pool's
	// reserved cores (sum over 2 cores: 0-200%). With the neighbour
	// idle this measures how much the kernel steals them for FLS.
	NeighborCoreUtilPct float64
	// LockWaitPerReq / LockHoldPerReq are kernel per-lock-request
	// times over the window (Fig 1b).
	LockWaitPerReq time.Duration
	LockHoldPerReq time.Duration

	// Diagnostics (not plotted in the paper).
	FLSCoreUtilPct float64       // utilization of the FLS pools' cores
	FLSIOWait      time.Duration // I/O wait accumulated by FLS pools
}

// InterferenceCase selects one bar of Fig 1/6a/6b.
type InterferenceCase struct {
	Config   core.Configuration // ConfigK or ConfigD
	FLSCount int                // 1 or 7
	Neighbor string             // "", "RND" or "WBS"
}

// Label renders the paper's symbol for the case.
func (c InterferenceCase) Label() string {
	s := fmt.Sprintf("%dFLS/%s", c.FLSCount, c.Config)
	if c.Neighbor != "" {
		s += "+1" + c.Neighbor
	}
	return s
}

// RunInterference executes one Fig 1/6a/6b case: FLSCount Fileserver
// instances over the given client configuration, with the neighbour
// pool always reserved (2 cores) and optionally running RND or WBS.
func RunInterference(c InterferenceCase, scale Scale) InterferenceRow {
	// Enabled cores: two per instance including the neighbour pool,
	// matching the paper's "twice the number of running instances".
	cores := 2 * (c.FLSCount + 1)
	r := newRig(cores, scale.Params(), false, Observer)
	row := InterferenceRow{Label: c.Label()}

	f := newFleet(r, c.Config, c.FLSCount, c.Neighbor, scale)

	r.runMaster(func(p *sim.Proc) {
		prepare(p, r.tb.Eng, f.preps()...)

		clock := scale.Clock(r.tb.Eng)
		utilWindow(r.tb, clock, f.nbrMask, &row.NeighborCoreUtilPct)
		utilWindow(r.tb, clock, cpu.MaskRange(0, 2*c.FLSCount), &row.FLSCoreUtilPct)
		lockWindow(r.tb, clock, &row.LockWaitPerReq, &row.LockHoldPerReq)
		var iowaitStart time.Duration
		r.tb.Eng.After(clock.From-r.tb.Eng.Now(), func() {
			for _, cont := range f.conts {
				iowaitStart += cont.Pool.Acct.IOWait()
			}
		})

		f.run(p, r.tb.Eng, clock)

		var mbps float64
		for i, cont := range f.conts {
			mbps += f.fls[i].Stats.ThroughputMBps(clock.Window())
			row.FLSIOWait += cont.Pool.Acct.IOWait()
		}
		row.FLSIOWait -= iowaitStart
		row.FLSThroughputMBps = mbps
	})
	return row
}

// fleet is the Fig 1 deployment: n Fileserver containers in pools
// 0..n-1 and the neighbour pool on the next two cores, running the RND
// or WBS neighbour workload when one is named.
type fleet struct {
	conts   []*core.Container
	fls     []*workloads.Fileserver
	nbrMask cpu.Mask
	nbr     preparer // nil when the neighbour pool idles
	nbrNew  func() *cpu.Thread
}

func newFleet(r *rig, config core.Configuration, n int, neighbor string, scale Scale) *fleet {
	f := &fleet{nbrMask: cpu.MaskRange(2*n, 2*n+2)}
	for i := 0; i < n; i++ {
		cont := r.flsContainer(i, config, scale)
		f.conts = append(f.conts, cont)
		f.fls = append(f.fls, newFileserver(cont, scale, int64(i)+1))
	}
	nbrPool := r.tb.NewPool("neighbor", f.nbrMask, scale.PoolMem())
	f.nbrNew = func() *cpu.Thread { return r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask) }
	switch neighbor {
	case "RND":
		w := &workloads.RandomIO{
			FS:         kernelLocalFS(r.tb),
			Path:       "/rndfile",
			NewThread:  f.nbrNew,
			Seed:       99,
			LockStress: r.tb.Kernel.SmallOpLockStress,
		}
		w.Defaults(scale.Factor)
		f.nbr = w
	case "WBS":
		w := &workloads.Webserver{FS: kernelLocalFS(r.tb), Dir: "/web", NewThread: f.nbrNew, Seed: 77}
		w.Defaults(scale.Factor)
		f.nbr = w
	}
	return f
}

// preps returns the dataset preparation of every workload, Fileservers
// first.
func (f *fleet) preps() []func(pp *sim.Proc) {
	var preps []func(pp *sim.Proc)
	for i, cont := range f.conts {
		preps = append(preps, prepFor(cont.NewThread, f.fls[i]))
	}
	if f.nbr != nil {
		preps = append(preps, prepFor(f.nbrNew, f.nbr))
	}
	return preps
}

// run runs every workload over clock and waits for all of them.
func (f *fleet) run(p *sim.Proc, eng *sim.Engine, clock workloads.Clock) {
	g := workloads.NewGroup(eng)
	for _, w := range f.fls {
		w.Run(g, clock)
	}
	if f.nbr != nil {
		f.nbr.Run(g, clock)
	}
	g.Wait(p)
}

// Fig1Cases returns the §2.1 motivation cases (kernel client only).
func Fig1Cases() []InterferenceCase {
	return []InterferenceCase{
		{Config: core.ConfigK, FLSCount: 1},
		{Config: core.ConfigK, FLSCount: 1, Neighbor: "RND"},
		{Config: core.ConfigK, FLSCount: 7},
		{Config: core.ConfigK, FLSCount: 7, Neighbor: "RND"},
	}
}

// Fig6aCases returns the Fig 6a comparison (D vs K, with/without RND).
func Fig6aCases() []InterferenceCase {
	var out []InterferenceCase
	for _, cfg := range []core.Configuration{core.ConfigK, core.ConfigD} {
		for _, n := range []int{1, 7} {
			out = append(out,
				InterferenceCase{Config: cfg, FLSCount: n},
				InterferenceCase{Config: cfg, FLSCount: n, Neighbor: "RND"},
			)
		}
	}
	return out
}

// Fig6bCases returns the Fig 6b comparison (D vs K, with/without WBS).
func Fig6bCases() []InterferenceCase {
	var out []InterferenceCase
	for _, cfg := range []core.Configuration{core.ConfigK, core.ConfigD} {
		for _, n := range []int{1, 7} {
			out = append(out,
				InterferenceCase{Config: cfg, FLSCount: n},
				InterferenceCase{Config: cfg, FLSCount: n, Neighbor: "WBS"},
			)
		}
	}
	return out
}

// SysbenchRow is one group of Fig 6c: latencies of the colocated pair.
type SysbenchRow struct {
	Label string
	// SSBLatencyP99 is the 99th percentile Sysbench event latency.
	SSBLatencyP99 time.Duration
	// FLSLatencyAvg is the mean Fileserver operation latency.
	FLSLatencyAvg time.Duration
	// SSBCoreUtilPct is utilization of the SSB pool's cores.
	SSBCoreUtilPct float64
}

// SysbenchCase selects one Fig 6c group.
type SysbenchCase struct {
	Config  core.Configuration
	WithSSB bool
}

// Label renders the paper's symbol.
func (c SysbenchCase) Label() string {
	s := "1FLS/" + c.Config.String()
	if c.WithSSB {
		s += "+1SSB"
	}
	return s
}

// Fig6cCases returns the Fig 6c comparison.
func Fig6cCases() []SysbenchCase {
	return []SysbenchCase{
		{Config: core.ConfigK, WithSSB: false},
		{Config: core.ConfigK, WithSSB: true},
		{Config: core.ConfigD, WithSSB: false},
		{Config: core.ConfigD, WithSSB: true},
	}
}

// RunSysbench executes one Fig 6c case: 1 FLS instance next to an
// optional Sysbench CPU instance.
func RunSysbench(c SysbenchCase, scale Scale) SysbenchRow {
	r := newRig(4, scale.Params(), false, Observer)
	row := SysbenchRow{Label: c.Label()}
	cont := r.flsContainer(0, c.Config, scale)
	fls := newFileserver(cont, scale, 1)

	ssbMask := cpu.MaskRange(2, 4)
	ssbPool := r.tb.NewPool("ssb", ssbMask, scale.PoolMem())
	ssb := &workloads.Sysbench{
		NewThread: func() *cpu.Thread { return r.tb.CPU.NewThread(ssbPool.Acct, ssbPool.Mask) },
	}
	ssb.Defaults()

	r.runMaster(func(p *sim.Proc) {
		prepare(p, r.tb.Eng, prepFor(cont.NewThread, fls))
		clock := scale.Clock(r.tb.Eng)
		utilWindow(r.tb, clock, ssbMask, &row.SSBCoreUtilPct)
		g := workloads.NewGroup(r.tb.Eng)
		fls.Run(g, clock)
		if c.WithSSB {
			ssb.Run(g, clock)
		}
		g.Wait(p)
		row.FLSLatencyAvg = fls.Stats.Latency.Mean()
		if c.WithSSB {
			row.SSBLatencyP99 = ssb.Stats.Latency.Quantile(0.99)
		}
	})
	return row
}
