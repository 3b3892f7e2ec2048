package main

import (
	"flag"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// TestCheckFlags: scenario sizes that would panic, hang or print zeros
// — pool counts past what the 64-core CPU model holds among them — and
// unknown configurations and workloads, are rejected with a message
// naming the flag.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		config   string
		workload string
		pools    int
		duration time.Duration
		factor   float64
		want     string // "" = accepted
	}{
		{"D", "fileserver", 1, 2 * time.Second, 0.02, ""},
		{"D", "fileserver", 4, time.Millisecond, 1, ""},
		{"D", "fileserver", -1, 2 * time.Second, 0.02, "-pools"},
		{"D", "fileserver", 0, 2 * time.Second, 0.02, "-pools"},
		{"D", "fileserver", 1, -time.Second, 0.02, "-duration"},
		{"D", "fileserver", 1, 0, 0.02, "-duration"},
		{"D", "fileserver", 1, 2 * time.Second, 0, "-factor"},
		{"D", "fileserver", 1, 2 * time.Second, -0.5, "-factor"},
		{"D", "fileserver", 1, 2 * time.Second, math.NaN(), "-factor"},
		{"F/K", "fileserver", 1, 2 * time.Second, 0.02, ""},
		{"fp/fp", "fileserver", 1, 2 * time.Second, 0.02, ""},
		{"Z", "fileserver", 1, 2 * time.Second, 0.02, "-config"},
		// Each pool takes two of the 64 cores; the fileserver scenario
		// reserves one more pool for its neighbour.
		{"D", "fileserver", 31, 2 * time.Second, 0.02, ""},
		{"D", "fileserver", 32, 2 * time.Second, 0.02, "-pools"},
		{"D", "seqread", 32, 2 * time.Second, 0.02, ""},
		{"D", "seqread", 33, 2 * time.Second, 0.02, "-pools"},
		{"D", "seqwrite", 32, 2 * time.Second, 0.02, ""},
		{"D", "seqwrite", 33, 2 * time.Second, 0.02, "-pools"},
		{"D", "kvput", 32, 2 * time.Second, 0.02, ""},
		{"D", "kvput", 33, 2 * time.Second, 0.02, "-pools"},
		{"D", "bogus", 1, 2 * time.Second, 0.02, "-workload"},
	}
	for _, c := range cases {
		_, err := checkFlags(c.config, c.workload, c.pools, c.duration, c.factor)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("config=%s workload=%s pools=%d duration=%v factor=%v: rejected: %v", c.config, c.workload, c.pools, c.duration, c.factor, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("config=%s workload=%s pools=%d duration=%v factor=%v: error %v does not name %s", c.config, c.workload, c.pools, c.duration, c.factor, err, c.want)
		}
	}
}

// TestStrayArguments: an argument left after the flags, of the scenario
// command or of monitor, is rejected by name instead of ending the flags
// and being ignored with every flag after it.
func TestStrayArguments(t *testing.T) {
	cases := []struct {
		monitor bool
		args    string
		want    string // "" = accepted
	}{
		{false, "-config K -workload seqread", ""},
		{false, "bogus -config K -workload seqread", `unexpected argument "bogus"`},
		{false, "-config K -workload seqread extra", `unexpected argument "extra"`},
		{false, "-pools 2 -- -neighbor", `unexpected argument "-neighbor"`},
		{true, "-windows w.csv -alerts a.csv", ""},
		{true, "-windows F extra", `unexpected argument "extra"`},
		{true, "bogus -windows F", `unexpected argument "bogus"`},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("danausctl", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		var err error
		if c.monitor {
			_, err = parseMonitorFlags(fs, strings.Fields(c.args))
		} else {
			_, err = parseFlags(fs, strings.Fields(c.args))
		}
		switch {
		case c.want == "" && err != nil:
			t.Errorf("monitor=%v %q: rejected: %v", c.monitor, c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("monitor=%v %q: error %v does not name %s", c.monitor, c.args, err, c.want)
		}
	}
}
