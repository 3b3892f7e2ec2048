package experiments

import (
	"testing"

	"repro/internal/core"
)

func TestInterferenceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	alone := RunInterference(InterferenceCase{Config: core.ConfigK, FLSCount: 1}, Run{Scale: QuickScale})
	t.Logf("%s: %.1f MB/s, nbr util %.1f%%, lock wait %v hold %v",
		alone.Label, alone.FLSThroughputMBps, alone.NeighborCoreUtilPct, alone.LockWaitPerReq, alone.LockHoldPerReq)
	if alone.FLSThroughputMBps <= 0 {
		t.Fatal("no FLS throughput")
	}
	withRND := RunInterference(InterferenceCase{Config: core.ConfigK, FLSCount: 1, Neighbor: "RND"}, Run{Scale: QuickScale})
	t.Logf("%s: %.1f MB/s, nbr util %.1f%%", withRND.Label, withRND.FLSThroughputMBps, withRND.NeighborCoreUtilPct)
	if withRND.FLSThroughputMBps >= alone.FLSThroughputMBps {
		t.Fatalf("RND colocation did not hurt the kernel client: %.1f vs %.1f",
			withRND.FLSThroughputMBps, alone.FLSThroughputMBps)
	}
}

func TestScaleParamsScalesWritebackConstants(t *testing.T) {
	quick := QuickScale.Params()
	paper := PaperScale.Params()
	if quick.WritebackInterval >= paper.WritebackInterval {
		t.Fatalf("quick interval %v not scaled below paper %v",
			quick.WritebackInterval, paper.WritebackInterval)
	}
	if quick.DirtyExpire != 5*quick.WritebackInterval {
		t.Fatalf("expire %v != 5x interval %v", quick.DirtyExpire, quick.WritebackInterval)
	}
	// The floor holds for tiny factors.
	tiny := Scale{Factor: 0.0001}.Params()
	if tiny.WritebackInterval < 5e6 { // 5ms
		t.Fatalf("interval below floor: %v", tiny.WritebackInterval)
	}
	if PoolDefault := PaperScale.PoolMem(); PoolDefault != 8<<30 {
		t.Fatalf("paper pool mem = %d", PoolDefault)
	}
	if QuickScale.PoolMem() < 128<<20 {
		t.Fatalf("quick pool mem below floor: %d", QuickScale.PoolMem())
	}
}

func TestInterferenceCaseLabels(t *testing.T) {
	if got := (InterferenceCase{Config: 1, FLSCount: 7, Neighbor: "RND"}).Label(); got != "7FLS/K+1RND" {
		t.Fatalf("label = %q", got)
	}
	if got := (SysbenchCase{WithSSB: true}).Label(); got != "1FLS/D+1SSB" {
		t.Fatalf("ssb label = %q", got)
	}
}
