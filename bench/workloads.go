package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// scale sizes every case: the quick harness's datasets and cost model
// (factor 0.02) with a shorter virtual run, 0.25 s warmup and a 1 s
// window, so one pass over a workload's matrix takes a few host
// seconds and a timed run repeats it.
var scale = experiments.Scale{Factor: experiments.QuickScale.Factor, Warmup: 250 * time.Millisecond, Duration: time.Second}

// flsScale sizes the fileserver cases: the quick harness's scale, its
// 0.5 s warmup and 2 s window included. Their obs recorder's heap grows
// with the run, so the shorter window moved host time from goroutine
// handoffs to allocation, away from the figure's profile (README.md).
var flsScale = experiments.QuickScale

// caseSpec is one point of a workload's matrix: a Table 1
// configuration at a pool (or clone) count.
type caseSpec struct {
	Config core.Configuration
	N      int
}

// name is the case's label in digests and messages, e.g. "F/F-32".
func (c caseSpec) name() string { return fmt.Sprintf("%s-%d", c.Config, c.N) }

// family folds a configuration onto the client stack it exercises
// most: D, F (ceph-fuse, with or without a FUSE union on top) or K.
func (c caseSpec) family() string {
	switch c.Config {
	case core.ConfigD:
		return "D"
	case core.ConfigF, core.ConfigFP, core.ConfigFF, core.ConfigFPFP:
		return "F"
	default:
		return "K"
	}
}

// workload is one benchmark input: a matrix of cases and the function
// that builds and runs one of them.
type workload struct {
	Name string
	// Seedless workloads have no random input: every seed gives the
	// seed-1 digests.
	Seedless bool
	Cases    []caseSpec
	run      func(c caseSpec, seed int64, h hooks) caseResult
}

// hooks are what a pass attaches to each testbed it builds.
type hooks struct {
	// tracer, when set, observes every engine event.
	tracer func(sim.TraceEvent)
	// observe attaches an obs.Recorder and reports it after the drain.
	observe func(*obs.Recorder)
}

// digest is the simulated outcome of one case. A change that only
// speeds the simulator up must leave every field identical.
type digest struct {
	Ops       uint64 `json:"ops"`
	Bytes     int64  `json:"bytes"`
	Errors    uint64 `json:"errors"`
	LatCount  uint64 `json:"lat_count"`
	LatMeanNs int64  `json:"lat_mean_ns"`
	LatP99Ns  int64  `json:"lat_p99_ns"`
	EndNs     int64  `json:"end_ns"`
	// Events is the engine event count, known only when a tracer ran.
	Events uint64 `json:"events,omitempty"`
}

// caseResult is what one case cost the host, plus its digest. Start is
// the host's wall clock (Unix ns) when the case began; the phase
// boundaries are monotonic offsets from it.
type caseResult struct {
	Digest       digest
	Start        int64
	Built        time.Duration // NewTestbed, ProvisionDir, NewPool, NewContainer done
	PrepStart    time.Duration // prepare group started
	MeasureStart time.Duration // prepare group's Wait returned, Run called
	MeasureEnd   time.Duration // measured group's Wait returned
	End          time.Duration // engine drained
	MaxRSSKiB    int64         // peak resident set of the process during the case
}

func sameCases(configs []core.Configuration, ns []int) []caseSpec {
	var out []caseSpec
	for _, cfg := range configs {
		for _, n := range ns {
			out = append(out, caseSpec{cfg, n})
		}
	}
	return out
}

var dfk = []core.Configuration{core.ConfigD, core.ConfigF, core.ConfigK}

// allWorkloads is the benchmark's input set, in BENCHMARK.json's order;
// README.md gives the reason for each. Each pair of workloads stresses
// different layers, so a gain on one layer has a workload that runs it
// and one that does not. Every matrix has a smallest case and the
// largest one the harness spends its time on (8 pools, 32 clones).
var allWorkloads = []*workload{
	{
		// The read hot path: cpu.Exec, the FUSE crossing, IPC and
		// page-cache hits; netsim, cluster, disk and writeback idle.
		Name:     "seqread",
		Seedless: true,
		Cases:    sameCases(dfk, []int{1, 8}),
		run:      func(c caseSpec, _ int64, h hooks) caseResult { return runSeqIO(c, false, h) },
	},
	{
		// The same layers for writes, plus dirty tracking, flusher
		// writeback, network transfers, OSD replica writes and disks.
		Name:     "seqwrite",
		Seedless: true,
		Cases:    sameCases(dfk, []int{1, 8}),
		run:      func(c caseSpec, _ int64, h hooks) caseResult { return runSeqIO(c, true, h) },
	},
	{
		// kvstore, unionfs, extent/memfs and the cache-miss path to the
		// OSDs; the only workload whose set-up is a large share of wall.
		Name:  "kvget-scaleup",
		Cases: sameCases([]core.Configuration{core.ConfigD, core.ConfigFF, core.ConfigKK}, []int{2, 32}),
		run:   runKVGetScaleup,
	},
	{
		// The metadata path (MDS, nstree, kernel locks) and the only
		// workload where obs, telemetry and metrics do work.
		Name:  "fileserver-observed",
		Cases: sameCases(dfk, []int{1, 8}),
		run:   runFileserverObserved,
	},
}

func findWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// bed is a testbed under benchmark control, with the host-time clock
// of its case.
type bed struct {
	tb    *core.Testbed
	rec   *obs.Recorder
	hooks hooks
	start time.Time
	res   caseResult
	stats *workloads.Stats
}

// newBed builds the testbed and attaches the pass's hooks. monitored
// additionally attaches a recorder and a telemetry monitor, as the
// observed sweeps do, before any pool exists.
func newBed(cores int, h hooks, monitored bool) *bed {
	start := time.Now()
	b := &bed{hooks: h, start: start, stats: workloads.NewStats(), res: caseResult{Start: start.UnixNano()}}
	b.tb = core.NewTestbed(core.TestbedConfig{Cores: cores, Params: scale.Params()})
	if monitored || h.observe != nil {
		b.rec = obs.New(obs.Config{Clock: b.tb.Eng.Now})
		b.tb.AttachObserver(b.rec)
	}
	if monitored {
		b.tb.AttachMonitor(telemetry.New(telemetry.Config{
			FastWindow: flsScale.Duration / 8,
			SlowWindow: flsScale.Duration / 2,
		}))
	}
	if h.tracer != nil {
		b.tb.Eng.SetTracer(h.tracer)
	}
	return b
}

// container provisions an upper directory and creates one container in
// its own 2-core pool at index i.
func (b *bed) container(i int, cfg core.Configuration) *core.Container {
	name := fmt.Sprintf("pool%d", i)
	upper := "/containers/" + name
	must(b.tb.Cluster.ProvisionDir(upper))
	pool := b.tb.NewPool(name, cpu.MaskRange(2*i, 2*i+2), scale.PoolMem())
	c, err := pool.NewContainer(name, core.MountSpec{Config: cfg, UpperDir: upper})
	must(err)
	return c
}

// run ends the build phase and drives the simulation: the prepare
// functions run concurrently, then the measured workloads, then the
// testbed stops and the engine drains. after, if set, runs on the
// master process once measurement ends.
func (b *bed) run(prep []func(p *sim.Proc), measure func(g *workloads.Group), after func(p *sim.Proc)) caseResult {
	eng := b.tb.Eng
	b.res.Built = time.Since(b.start)
	eng.Go("bench-master", func(p *sim.Proc) {
		b.res.PrepStart = time.Since(b.start)
		g := workloads.NewGroup(eng)
		for i, fn := range prep {
			g.Go(fmt.Sprintf("prep%d", i), fn)
		}
		g.Wait(p)
		b.res.MeasureStart = time.Since(b.start)
		g = workloads.NewGroup(eng)
		measure(g)
		g.Wait(p)
		b.res.MeasureEnd = time.Since(b.start)
		if after != nil {
			after(p)
		}
		b.tb.Stop()
	})
	eng.Run()
	b.res.End = time.Since(b.start)
	if b.rec != nil {
		b.rec.Finalize()
		if b.hooks.observe != nil {
			b.hooks.observe(b.rec)
		}
	}
	s := b.stats
	b.res.Digest = digest{
		Ops: s.Ops.Ops, Bytes: s.Ops.Bytes, Errors: s.Errors,
		LatCount: s.Latency.Count(), LatMeanNs: int64(s.Latency.Mean()),
		LatP99Ns: int64(s.Latency.Quantile(0.99)), EndNs: int64(eng.Now()),
	}
	return b.res
}

// measureClock opens the measurement window of sc warmup after now.
func measureClock(eng *sim.Engine, sc experiments.Scale) workloads.Clock {
	now := eng.Now()
	return workloads.Clock{Eng: eng, From: now + sc.Warmup, Stop: now + sc.Warmup + sc.Duration}
}

// prepareOn wraps a workload's Prepare as a prepare-group function on
// a fresh thread of container c.
func prepareOn(c *core.Container, prepare func(vfsapi.Ctx) error) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		must(prepare(vfsapi.Ctx{P: p, T: c.NewThread()}))
	}
}

// runSeqIO is one Fig 9 point: c.N pools, each with a private client,
// running Seqwrite or cached Seqread with 16 threads.
func runSeqIO(c caseSpec, write bool, h hooks) caseResult {
	b := newBed(2*c.N, h, false)
	var ws []*workloads.SeqIO
	var prep []func(p *sim.Proc)
	for i := 0; i < c.N; i++ {
		cont := b.container(i, c.Config)
		w := &workloads.SeqIO{FS: cont.Mount.Default, Dir: "/seq", Write: write, NewThread: cont.NewThread, Stats: b.stats}
		w.Defaults(scale.Factor)
		ws = append(ws, w)
		prep = append(prep, prepareOn(cont, w.Prepare))
	}
	return b.run(prep, func(g *workloads.Group) {
		clock := measureClock(b.tb.Eng, scale)
		for _, w := range ws {
			w.Run(g, clock)
		}
	}, nil)
}

// runFileserverObserved is one Fig 10 point with a recorder and a
// monitor attached: c.N pools each running one Fileserver instance with
// the figure's parameters.
func runFileserverObserved(c caseSpec, seed int64, h hooks) caseResult {
	b := newBed(2*c.N, h, true)
	var ws []*workloads.Fileserver
	var prep []func(p *sim.Proc)
	for i := 0; i < c.N; i++ {
		cont := b.container(i, c.Config)
		w := &workloads.Fileserver{
			FS: cont.Mount.Default, Dir: "/flsdata", NewThread: cont.NewThread,
			Seed: workloads.StreamSeed(seed, "bench-fileserver", i), Stats: b.stats,
		}
		w.Defaults(flsScale.Factor)
		ws = append(ws, w)
		prep = append(prep, prepareOn(cont, w.Prepare))
	}
	return b.run(prep, func(g *workloads.Group) {
		clock := measureClock(b.tb.Eng, flsScale)
		for _, w := range ws {
			w.Run(g, clock)
		}
	}, nil)
}

// kvGetShare is the share of its dataset each clone reads back. Fig 7d
// reads all of it; a quarter keeps a pass over the 32-clone cases short
// enough to repeat within a run, and the gets stay uniform over the
// whole out-of-core dataset.
const kvGetShare = 4

// runKVGetScaleup is one Fig 7d point: c.N cloned containers in one
// pool share a backend client under private unions; each opens a
// store, populates an out-of-core dataset, then reads part of it back
// with random gets.
func runKVGetScaleup(c caseSpec, seed int64, h hooks) caseResult {
	cores := min(max(2*c.N, 4), 64)
	b := newBed(cores, h, false)
	tb := b.tb
	must(tb.Cluster.ProvisionDir("/images/base/etc"))
	must(tb.Cluster.Provision("/images/base/etc/os-release", 4<<10))
	pool := tb.NewPool("scaleup", tb.CPU.AllMask(), scale.PoolMem()*int64(c.N))
	conts := make([]*core.Container, c.N)
	for i := range conts {
		upper := fmt.Sprintf("/containers/clone%03d", i)
		must(tb.Cluster.ProvisionDir(upper))
		spec := core.MountSpec{Config: c.Config, UpperDir: upper, LowerDir: "/images/base"}
		if i > 0 {
			spec.SharedClient = conts[0].Mount.Client
			spec.SharedKernelMount = conts[0].Mount.KernelMount
		}
		cont, err := pool.NewContainer(fmt.Sprintf("clone%03d", i), spec)
		must(err)
		conts[i] = cont
	}

	memtable := max(int64(float64(64<<20)*scale.Factor*4), 4<<20)
	dataset := max(int64(float64(8<<30)*scale.Factor), 32<<20)
	dbs := make([]*kvstore.DB, c.N)
	keys := make([][]uint64, c.N)
	prep := make([]func(p *sim.Proc), c.N)
	for i, cont := range conts {
		prep[i] = prepareOn(cont, func(ctx vfsapi.Ctx) error {
			db, err := kvstore.Open(ctx, kvstore.Config{
				FS: cont.Mount.Default, Dir: "/rocksdb", MemtableBytes: memtable,
				Eng: tb.Eng, Params: tb.Params, NewThread: cont.NewThread,
			})
			if err != nil {
				return err
			}
			dbs[i] = db
			keys[i], err = workloads.Populate(ctx, db, dataset, 128<<10, workloads.StreamSeed(seed, "bench-populate", i))
			return err
		})
	}
	return b.run(prep, func(g *workloads.Group) {
		clock := workloads.Clock{Eng: tb.Eng, From: tb.Eng.Now()}
		for i, cont := range conts {
			w := &workloads.KVGet{
				DB: dbs[i], Keys: keys[i], TotalBytes: dataset / kvGetShare, NewThread: cont.NewThread,
				Seed: workloads.StreamSeed(seed, "bench-kvget", i), Stats: b.stats,
			}
			w.Defaults(scale.Factor)
			w.Run(g, clock)
		}
	}, func(p *sim.Proc) {
		for i, db := range dbs {
			must(db.Close(vfsapi.Ctx{P: p, T: conts[i].NewThread()}))
		}
	})
}

// must panics on a set-up error: every case is a fixed, known-good
// configuration, so an error here is a simulator bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}
