package experiments

import (
	"os"
	"testing"

	"repro/internal/core"
)

// TestCalibrateFig6a prints the Fig 6a comparison for calibration runs.
// Enable with CALIBRATE=1.
func TestCalibrateFig6a(t *testing.T) {
	if os.Getenv("CALIBRATE") == "" {
		t.Skip("set CALIBRATE=1 to run")
	}
	for _, c := range []InterferenceCase{
		{Config: core.ConfigK, FLSCount: 1},
		{Config: core.ConfigK, FLSCount: 1, Neighbor: "RND"},
		{Config: core.ConfigD, FLSCount: 1},
		{Config: core.ConfigD, FLSCount: 1, Neighbor: "RND"},
		{Config: core.ConfigK, FLSCount: 7},
		{Config: core.ConfigK, FLSCount: 7, Neighbor: "RND"},
		{Config: core.ConfigD, FLSCount: 7},
		{Config: core.ConfigD, FLSCount: 7, Neighbor: "RND"},
	} {
		row := RunInterference(c, Run{Scale: QuickScale})
		t.Logf("%-14s  %8.1f MB/s  nbr %6.1f%%  fls %6.1f%%  iowait %10v  wait %10v hold %10v",
			row.Label, row.FLSThroughputMBps, row.NeighborCoreUtilPct, row.FLSCoreUtilPct, row.FLSIOWait, row.LockWaitPerReq, row.LockHoldPerReq)
	}
}
