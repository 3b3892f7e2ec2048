package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// KVRow is one point of the Fig 7 curves: mean put or get latency of
// the key-value store across pools or clones.
type KVRow struct {
	Config core.Configuration
	Count  int // pools (scaleout) or clones (scaleup)
	// PutLatency / GetLatency are means over the measured phase.
	PutLatency time.Duration
	GetLatency time.Duration
}

// String renders the row for the harness.
func (r KVRow) String() string {
	return fmt.Sprintf("%-5s n=%-3d put=%-12v get=%v", r.Config, r.Count, r.PutLatency, r.GetLatency)
}

// KVPhase selects the measured phase.
type KVPhase int

// Phases of the Fig 7 experiments.
const (
	// PhasePut measures random inserts (Fig 7a/7c).
	PhasePut KVPhase = iota
	// PhaseGet populates an out-of-core dataset first, then measures
	// random lookups (Fig 7b/7d).
	PhaseGet
)

// kvInstance is one running KV store bound to a container.
type kvInstance struct {
	cont *core.Container
	db   *kvstore.DB
	put  *workloads.KVPut
	get  *workloads.KVGet
	keys []uint64
}

// openKV opens a store on the container's root filesystem.
func openKV(ctx vfsapi.Ctx, r *rig, cont *core.Container, scale Scale) (*kvstore.DB, error) {
	memtable := int64(float64(64<<20) * scale.Factor * 4)
	if memtable < 4<<20 {
		memtable = 4 << 20
	}
	return kvstore.Open(ctx, kvstore.Config{
		FS:            cont.Mount.Default,
		Dir:           "/rocksdb",
		MemtableBytes: memtable,
		Eng:           r.tb.Eng,
		Params:        r.tb.Params,
		NewThread:     cont.NewThread,
	})
}

// RunKVScaleout executes one Fig 7a/7b point: `pools` independent
// container pools, each with a private client and a private store.
func RunKVScaleout(config core.Configuration, pools int, phase KVPhase, run Run) KVRow {
	r := newRig(2*pools, run.Params(), false, run.Attach)
	row := KVRow{Config: config, Count: pools}
	insts := make([]*kvInstance, pools)
	for i := range insts {
		insts[i] = &kvInstance{cont: r.flsContainer(i, config, run.Scale)}
	}
	runKV(r, insts, phase, run.Scale, &row)
	return row
}

// RunKVScaleup executes one Fig 7c/7d point: `clones` cloned containers
// in a single pool, sharing one backend client under private unions.
func RunKVScaleup(config core.Configuration, clones int, phase KVPhase, run Run) KVRow {
	cores := 2 * clones
	if cores < 4 {
		cores = 4
	}
	if cores > 64 {
		cores = 64
	}
	r := newRig(cores, run.Params(), false, run.Attach)
	row := KVRow{Config: config, Count: clones}

	if err := r.tb.Cluster.ProvisionDir("/images/base/etc"); err != nil {
		panic(err)
	}
	r.tb.Cluster.Provision("/images/base/etc/os-release", 4<<10)
	pool := r.tb.NewPool("scaleup", r.tb.CPU.AllMask(), run.PoolMem()*int64(clones))

	conts := r.clones(pool, config, "clone", "/images/base", clones)
	insts := make([]*kvInstance, clones)
	for i, cont := range conts {
		insts[i] = &kvInstance{cont: cont}
	}
	runKV(r, insts, phase, run.Scale, &row)
	return row
}

// runKV opens the stores, optionally populates them, runs the measured
// phase concurrently across instances and averages the latencies.
func runKV(r *rig, insts []*kvInstance, phase KVPhase, scale Scale, row *KVRow) {
	r.runMaster(func(p *sim.Proc) {
		// Open (and for gets, populate) each store concurrently.
		preps := make([]func(pp *sim.Proc), len(insts))
		for i, in := range insts {
			preps[i] = func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: in.cont.NewThread()}
				db, err := openKV(ctx, r, in.cont, scale)
				if err != nil {
					panic(err)
				}
				in.db = db
				if phase == PhaseGet {
					// The paper populates 8 GB before reading back:
					// an out-of-core dataset relative to the client
					// cache.
					total := int64(float64(8<<30) * scale.Factor)
					if total < 32<<20 {
						total = 32 << 20
					}
					keys, err := workloads.Populate(ctx, db, total, 128<<10, int64(i)+13)
					if err != nil {
						panic(err)
					}
					in.keys = keys
				}
			}
		}
		prepare(p, r.tb.Eng, preps...)

		clock := workloads.Clock{Eng: r.tb.Eng, From: r.tb.Eng.Now()}
		g := workloads.NewGroup(r.tb.Eng)
		for i, in := range insts {
			switch phase {
			case PhasePut:
				in.put = &workloads.KVPut{DB: in.db, Seed: int64(i) + 7, NewThread: in.cont.NewThread}
				in.put.Defaults(scale.Factor)
				in.put.Run(g, clock)
			case PhaseGet:
				in.get = &workloads.KVGet{DB: in.db, Keys: in.keys, Seed: int64(i) + 7, NewThread: in.cont.NewThread}
				in.get.Defaults(scale.Factor)
				in.get.Run(g, clock)
			}
		}
		g.Wait(p)

		var putSum, getSum time.Duration
		var putN, getN int
		for _, in := range insts {
			if in.put != nil && in.put.Stats.Latency.Count() > 0 {
				putSum += in.put.Stats.Latency.Mean()
				putN++
			}
			if in.get != nil && in.get.Stats.Latency.Count() > 0 {
				getSum += in.get.Stats.Latency.Mean()
				getN++
			}
			closeCtx := vfsapi.Ctx{P: p, T: in.cont.NewThread()}
			in.db.Close(closeCtx)
		}
		if putN > 0 {
			row.PutLatency = putSum / time.Duration(putN)
		}
		if getN > 0 {
			row.GetLatency = getSum / time.Duration(getN)
		}
	})
}

// Fig7ScaleoutCounts returns the paper's pool sweep (1-32).
func Fig7ScaleoutCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig7ScaleupCounts returns the paper's clone sweep (1-32).
func Fig7ScaleupCounts() []int { return []int{1, 2, 4, 8, 16, 32} }

// Fig7aConfigs lists the scaleout comparison set.
func Fig7aConfigs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigF, core.ConfigK}
}

// Fig7cConfigs lists the scaleup comparison set.
func Fig7cConfigs() []core.Configuration {
	return []core.Configuration{core.ConfigD, core.ConfigFF, core.ConfigFK, core.ConfigKK}
}
