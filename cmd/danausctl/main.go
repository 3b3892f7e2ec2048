// Command danausctl runs a custom multitenant scenario on the simulated
// testbed: a number of container pools of a chosen Table 1
// configuration, a chosen workload per pool, and an optional noisy
// neighbour — then prints per-pool and host-level statistics.
//
// Examples:
//
//	danausctl -config D -pools 4 -workload fileserver -duration 5s
//	danausctl -config K -pools 2 -workload seqwrite -neighbor rnd
//	danausctl -config F/F -pools 1 -workload kvput -clones 8
//
// The monitor subcommand pretty-prints the live-telemetry artifacts
// written by `danausbench -exp monitorsweep -monitor <base>`:
//
//	danausctl monitor -windows m-k-overload-windows.csv -alerts m-k-overload-alerts.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "monitor" {
		runMonitorCmd(os.Args[2:])
		return
	}
	configName := flag.String("config", "D", "client configuration: D K F FP K/K F/K F/F FP/FP")
	pools := flag.Int("pools", 1, "container pools (2 cores each)")
	workload := flag.String("workload", "fileserver", "fileserver | seqwrite | seqread | kvput")
	duration := flag.Duration("duration", 2*time.Second, "measured window for timed workloads")
	neighbor := flag.Bool("neighbor", false, "run a RandomIO noisy neighbour pool")
	factor := flag.Float64("factor", 0.02, "dataset scale factor (1.0 = paper)")
	flag.Parse()

	config, err := checkFlags(*configName, *pools, *duration, *factor)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale := experiments.Scale{Factor: *factor, Duration: *duration, Warmup: *duration / 4}
	run := experiments.Run{Scale: scale}

	switch *workload {
	case "fileserver":
		runInterferenceScenario(config, *pools, *neighbor, run)
	case "seqwrite":
		row := experiments.RunSeqIOScaleout(config, *pools, true, run)
		fmt.Println(row)
	case "seqread":
		row := experiments.RunSeqIOScaleout(config, *pools, false, run)
		fmt.Println(row)
	case "kvput":
		runKVScenario(config, *pools, scale)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
}

// checkFlags resolves the configuration and rejects scenario sizes the
// testbed cannot run, naming the offending flag.
func checkFlags(config string, pools int, duration time.Duration, factor float64) (core.Configuration, error) {
	switch {
	case pools < 1:
		return 0, fmt.Errorf("-pools wants at least 1 pool, got %d", pools)
	case duration <= 0:
		return 0, fmt.Errorf("-duration wants a positive window, got %v", duration)
	case !(factor > 0):
		return 0, fmt.Errorf("-factor wants a positive scale factor, got %v", factor)
	}
	c, err := core.ParseConfiguration(config)
	if err != nil {
		return 0, fmt.Errorf("-config: %v", err)
	}
	return c, nil
}

func runInterferenceScenario(config core.Configuration, pools int, neighbor bool, run experiments.Run) {
	c := experiments.InterferenceCase{Config: config, FLSCount: pools}
	if neighbor {
		c.Neighbor = "RND"
	}
	row := experiments.RunInterference(c, run)
	fmt.Printf("%s\n", row.Label)
	fmt.Printf("  fileserver throughput : %.1f MB/s\n", row.FLSThroughputMBps)
	fmt.Printf("  fileserver pool cores : %.1f%%\n", row.FLSCoreUtilPct)
	fmt.Printf("  neighbour pool cores  : %.1f%%\n", row.NeighborCoreUtilPct)
	fmt.Printf("  fileserver iowait     : %v\n", row.FLSIOWait)
	fmt.Printf("  kernel lock wait/req  : %v (hold %v)\n", row.LockWaitPerReq, row.LockHoldPerReq)
}

// runKVScenario builds its own testbed so it can print store internals.
func runKVScenario(config core.Configuration, pools int, scale experiments.Scale) {
	tb := core.NewTestbed(core.TestbedConfig{Cores: 2 * pools, Params: scale.Params()})
	type inst struct {
		cont *core.Container
		db   *kvstore.DB
		put  *workloads.KVPut
	}
	insts := make([]*inst, pools)
	for i := range insts {
		name := fmt.Sprintf("kv%d", i)
		if err := tb.Cluster.ProvisionDir("/containers/" + name); err != nil {
			panic(err)
		}
		pool := tb.NewPool(name, cpu.MaskRange(2*i, 2*i+2), scale.PoolMem())
		cont, err := pool.NewContainer(name, core.MountSpec{Config: config, UpperDir: "/containers/" + name})
		if err != nil {
			panic(err)
		}
		insts[i] = &inst{cont: cont}
	}
	tb.Eng.Go("master", func(p *sim.Proc) {
		defer tb.Stop()
		g := workloads.NewGroup(tb.Eng)
		for i, in := range insts {
			in := in
			i := i
			g.Go("kv", func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: in.cont.NewThread()}
				db, err := kvstore.Open(ctx, kvstore.Config{
					FS: in.cont.Mount.Default, Dir: "/rocksdb",
					MemtableBytes: 8 << 20, Eng: tb.Eng, NewThread: in.cont.NewThread,
				})
				if err != nil {
					panic(err)
				}
				in.db = db
				in.put = &workloads.KVPut{DB: db, Seed: int64(i) + 1, NewThread: in.cont.NewThread}
				in.put.Defaults(scale.Factor)
				g2 := workloads.NewGroup(tb.Eng)
				in.put.Run(g2, workloads.Clock{Eng: tb.Eng})
				g2.Wait(pp)
				db.Close(ctx)
			})
		}
		g.Wait(p)
	})
	tb.Eng.Run()

	fmt.Printf("%s kvput across %d pools (virtual time %v)\n", config, pools, tb.Eng.Now())
	for i, in := range insts {
		l0, l1 := in.db.Levels()
		fmt.Printf("  pool %d: %d puts, avg %v, %d flushes, %d compactions, L0=%d L1=%d, stall %v\n",
			i, in.put.Stats.Ops.Ops, in.put.Stats.Latency.Mean(), in.db.Flushes, in.db.Compactions, l0, l1, in.db.StallTime)
	}
}
