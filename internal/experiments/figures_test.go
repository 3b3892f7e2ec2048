package experiments

import (
	"testing"

	"repro/internal/core"
)

// The figure smoke tests assert the qualitative shape of each result
// at quick scale: who wins and in which direction, not absolute values.

func TestFig6cSysbenchIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	kAlone := RunSysbench(SysbenchCase{Config: core.ConfigK, WithSSB: false}, Run{Scale: QuickScale})
	kBoth := RunSysbench(SysbenchCase{Config: core.ConfigK, WithSSB: true}, Run{Scale: QuickScale})
	dAlone := RunSysbench(SysbenchCase{Config: core.ConfigD, WithSSB: false}, Run{Scale: QuickScale})
	dBoth := RunSysbench(SysbenchCase{Config: core.ConfigD, WithSSB: true}, Run{Scale: QuickScale})
	t.Logf("K: fls alone %v both %v ssb-p99 %v (ssb cores alone %.1f%%)", kAlone.FLSLatencyAvg, kBoth.FLSLatencyAvg, kBoth.SSBLatencyP99, kAlone.SSBCoreUtilPct)
	t.Logf("D: fls alone %v both %v ssb-p99 %v (ssb cores alone %.1f%%)", dAlone.FLSLatencyAvg, dBoth.FLSLatencyAvg, dBoth.SSBLatencyP99, dAlone.SSBCoreUtilPct)

	// The kernel client uses the SSB pool's reserved cores when SSB is
	// idle; Danaus barely touches them.
	if kAlone.SSBCoreUtilPct < 5*dAlone.SSBCoreUtilPct {
		t.Errorf("K should steal far more SSB cores than D: K=%.1f%% D=%.1f%%",
			kAlone.SSBCoreUtilPct, dAlone.SSBCoreUtilPct)
	}
	if kBoth.SSBLatencyP99 <= 0 || dBoth.SSBLatencyP99 <= 0 {
		t.Fatal("missing SSB latency")
	}
	// Colocated Sysbench suffers more next to the kernel client.
	if kBoth.SSBLatencyP99 < dBoth.SSBLatencyP99 {
		t.Errorf("SSB p99 should be worse next to K: K=%v D=%v", kBoth.SSBLatencyP99, dBoth.SSBLatencyP99)
	}
}

func TestFig7aKVPutScaleout(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pools := 8
	d := RunKVScaleout(core.ConfigD, pools, PhasePut, Run{Scale: QuickScale})
	f := RunKVScaleout(core.ConfigF, pools, PhasePut, Run{Scale: QuickScale})
	k := RunKVScaleout(core.ConfigK, pools, PhasePut, Run{Scale: QuickScale})
	t.Logf("put scaleout n=%d: D=%v F=%v K=%v", pools, d.PutLatency, f.PutLatency, k.PutLatency)
	if d.PutLatency <= 0 || f.PutLatency <= 0 || k.PutLatency <= 0 {
		t.Fatal("missing latencies")
	}
	// Paper Fig 7a: D has the lowest put latency at scaleout.
	if d.PutLatency > f.PutLatency {
		t.Errorf("D put latency should beat F: %v vs %v", d.PutLatency, f.PutLatency)
	}
	if d.PutLatency > k.PutLatency {
		t.Errorf("D put latency should beat K: %v vs %v", d.PutLatency, k.PutLatency)
	}
}

func TestFig7cKVPutScaleup(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	clones := 4
	d := RunKVScaleup(core.ConfigD, clones, PhasePut, Run{Scale: QuickScale})
	ff := RunKVScaleup(core.ConfigFF, clones, PhasePut, Run{Scale: QuickScale})
	t.Logf("put scaleup n=%d: D=%v F/F=%v", clones, d.PutLatency, ff.PutLatency)
	// Paper Fig 7c: D clearly beats F/F in put scaleup.
	if d.PutLatency >= ff.PutLatency {
		t.Errorf("D should beat F/F in put scaleup: %v vs %v", d.PutLatency, ff.PutLatency)
	}
}

func TestFig8StartupScaleup(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	n := 8
	d := RunStartupScaleup(core.ConfigD, n, Run{Scale: QuickScale})
	kk := RunStartupScaleup(core.ConfigKK, n, Run{Scale: QuickScale})
	ff := RunStartupScaleup(core.ConfigFF, n, Run{Scale: QuickScale})
	t.Logf("startup n=%d: D=%v(%d sw) K/K=%v(%d sw) F/F=%v(%d sw)",
		n, d.RealTime, d.ContextSwitches, kk.RealTime, kk.ContextSwitches, ff.RealTime, ff.ContextSwitches)
	// Paper Fig 8: the kernel path starts containers fastest; D beats
	// F/F clearly; F/F has many times more context switches than D.
	if kk.RealTime >= d.RealTime {
		t.Errorf("K/K should start faster than D: %v vs %v", kk.RealTime, d.RealTime)
	}
	if d.RealTime >= ff.RealTime {
		t.Errorf("D should start faster than F/F: %v vs %v", d.RealTime, ff.RealTime)
	}
	if ff.ContextSwitches < 5*d.ContextSwitches {
		t.Errorf("F/F should context-switch far more than D: %d vs %d", ff.ContextSwitches, d.ContextSwitches)
	}
}

// TestTable1ConfigurationsStartContainers: every Table 1 composition
// assembles and starts a container, whose startup reads through the
// configuration's legacy interface, in nonzero time.
func TestTable1ConfigurationsStartContainers(t *testing.T) {
	for _, cfg := range core.AllConfigurations() {
		if row := RunStartupScaleup(cfg, 1, Run{Scale: QuickScale}); row.RealTime <= 0 {
			t.Errorf("configuration %v produced no startup time", cfg)
		}
	}
}

func TestFig9Seqwrite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pools := 4
	d := RunSeqIOScaleout(core.ConfigD, pools, true, Run{Scale: QuickScale})
	k := RunSeqIOScaleout(core.ConfigK, pools, true, Run{Scale: QuickScale})
	t.Logf("seqwrite n=%d: %s | %s", pools, d, k)
	// Paper Fig 9 top: D beats K in sequential writes; K accumulates
	// far more I/O wait.
	if d.ThroughputMBps <= k.ThroughputMBps {
		t.Errorf("D should beat K in Seqwrite: %.1f vs %.1f MB/s", d.ThroughputMBps, k.ThroughputMBps)
	}
}

func TestFig9Seqread(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	d := RunSeqIOScaleout(core.ConfigD, 1, false, Run{Scale: QuickScale})
	f := RunSeqIOScaleout(core.ConfigF, 1, false, Run{Scale: QuickScale})
	k := RunSeqIOScaleout(core.ConfigK, 1, false, Run{Scale: QuickScale})
	t.Logf("seqread n=1: D=%.1f F=%.1f K=%.1f MB/s", d.ThroughputMBps, f.ThroughputMBps, k.ThroughputMBps)
	// Paper Fig 9 bottom: cached sequential read — K beats D
	// (client_lock serialization), D beats F (no FUSE crossings).
	if k.ThroughputMBps <= d.ThroughputMBps {
		t.Errorf("K should beat D in cached Seqread: %.1f vs %.1f", k.ThroughputMBps, d.ThroughputMBps)
	}
	if d.ThroughputMBps <= f.ThroughputMBps {
		t.Errorf("D should beat F in cached Seqread: %.1f vs %.1f", d.ThroughputMBps, f.ThroughputMBps)
	}
}

func TestFig10FileserverScaleout(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	pools := 8
	d := RunFileserverScaleout(core.ConfigD, pools, Run{Scale: QuickScale})
	k := RunFileserverScaleout(core.ConfigK, pools, Run{Scale: QuickScale})
	t.Logf("fileserver n=%d: %s | %s", pools, d, k)
	// Paper Fig 10: D overtakes K by 8 pools.
	if d.ThroughputMBps <= k.ThroughputMBps {
		t.Errorf("D should beat K at %d pools: %.1f vs %.1f MB/s", pools, d.ThroughputMBps, k.ThroughputMBps)
	}
}

func TestFig11aFileappend(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	n := 16
	d := RunFileIOScaleup(core.ConfigD, n, true, Run{Scale: QuickScale})
	kk := RunFileIOScaleup(core.ConfigKK, n, true, Run{Scale: QuickScale})
	ff := RunFileIOScaleup(core.ConfigFF, n, true, Run{Scale: QuickScale})
	t.Logf("fileappend n=%d: %s | %s | %s", n, d, kk, ff)
	// Paper Fig 11a: D tends to the shortest timespan (up to 46% under
	// K/K at 32 containers). Our model keeps D competitive with K/K
	// (within 1.4x — the one recorded shape deviation, see
	// EXPERIMENTS.md) and clearly ahead of F/F.
	if float64(d.Timespan) > 1.4*float64(kk.Timespan) {
		t.Errorf("D should stay within 1.4x of K/K in Fileappend: %v vs %v", d.Timespan, kk.Timespan)
	}
	if d.Timespan >= ff.Timespan {
		t.Errorf("D should beat F/F in Fileappend: %v vs %v", d.Timespan, ff.Timespan)
	}
	if d.MaxMemory <= 0 {
		t.Error("missing memory measurement")
	}
}

func TestFig11bFilereadMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	n := 16
	d := RunFileIOScaleup(core.ConfigD, n, false, Run{Scale: QuickScale})
	fpfp := RunFileIOScaleup(core.ConfigFPFP, n, false, Run{Scale: QuickScale})
	kk := RunFileIOScaleup(core.ConfigKK, n, false, Run{Scale: QuickScale})
	t.Logf("fileread n=%d: %s | %s | %s", n, d, fpfp, kk)
	// Paper Fig 11b: FP/FP uses multiples of D's memory (double
	// caching); K/K finishes faster than D.
	if fpfp.MaxMemory < 2*d.MaxMemory {
		t.Errorf("FP/FP memory should far exceed D: %d vs %d", fpfp.MaxMemory, d.MaxMemory)
	}
	if kk.Timespan >= d.Timespan {
		t.Errorf("K/K should beat D in cached Fileread: %v vs %v", kk.Timespan, d.Timespan)
	}
}
