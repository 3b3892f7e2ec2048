package main

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
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

// TestMonitorReadsOnlyItsFormat: monitor renders every monitorsweep CSV
// pair testdata/golden pins and exits 0, and exits 1 with a FILE:LINE:
// message on a file in the other flag's format, a truncated row, a
// field that is not a number or an unknown alert state, instead of
// rendering zeros.
func TestMonitorReadsOnlyItsFormat(t *testing.T) {
	golden := filepath.Join("..", "..", "testdata", "golden")
	windows, err := filepath.Glob(filepath.Join(golden, "monitorsweep-*-windows.csv"))
	if err != nil || len(windows) != 4 {
		t.Fatalf("want the 4 pinned windows CSVs, got %v (%v)", windows, err)
	}
	monitor := func(args ...string) (int, string, string) {
		var stdout, stderr strings.Builder
		code := runMonitorCmd(args, &stdout, &stderr)
		return code, stdout.String(), stderr.String()
	}
	for _, w := range windows {
		a := strings.TrimSuffix(w, "-windows.csv") + "-alerts.csv"
		code, out, errOut := monitor("-windows", w, "-alerts", a)
		if code != 0 || errOut != "" || !strings.Contains(out, "FIRING") || strings.Contains(out, "(0 row(s))") {
			t.Errorf("%s: exit %d, stderr %q, stdout:\n%s", w, code, errOut, out)
		}
		if code, _, errOut := monitor("-windows", a); code != 1 || !strings.Contains(errOut, a+":1: header") {
			t.Errorf("alerts CSV as -windows: exit %d, stderr %q", code, errOut)
		}
		if code, _, errOut := monitor("-alerts", w); code != 1 || !strings.Contains(errOut, w+":1: header") {
			t.Errorf("windows CSV as -alerts: exit %d, stderr %q", code, errOut)
		}
	}

	src, err := os.ReadFile(windows[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(src), "\n")
	dir := t.TempDir()
	for _, c := range []struct {
		flag, name, content, want string
	}{
		{"-windows", "truncated.csv", strings.Join(lines[:2], "") + strings.Join(strings.Split(lines[2], ",")[:9], ","), "truncated.csv:3: 9 field(s), want 15"},
		{"-windows", "nan.csv", strings.Join(lines[:2], "") + strings.Replace(lines[2], ",0,", ",zero,", 1), `nan.csv:3: start_us: bad value "zero"`},
		{"-windows", "empty.csv", "", "empty.csv:1: empty file"},
		{"-alerts", "state.csv", "t_us,tenant,slo,state,fast_burn,slow_burn\n1,A,p99,burning,1,1\n", `state.csv:2: state: bad value "burning"`},
	} {
		path := filepath.Join(dir, c.name)
		if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _, errOut := monitor(c.flag, path); code != 1 || !strings.Contains(errOut, c.want) {
			t.Errorf("%s: exit %d, stderr %q, want %q", c.name, code, errOut, c.want)
		}
	}
}
