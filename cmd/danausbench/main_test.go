package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/vfsapi"
)

// TestNoteViolationsAccumulates checks the satellite invariant plumbing:
// violations reported by experiment rows land in the accumulator that
// turns the exit status nonzero.
func TestNoteViolationsAccumulates(t *testing.T) {
	h := &harness{}
	h.noteViolations(nil)
	if h.failures != 0 {
		t.Fatalf("clean rows counted as failures: %d", h.failures)
	}

	// A row whose admission queue overran its cap and whose accounting
	// does not balance must produce two violations.
	bad := experiments.OverloadRow{
		OverloadCase: experiments.OverloadCase{Label: "D+adm", Multiplier: 4},
		QueueCap:     8,
		Admission: vfsapi.AdmissionStats{
			Offered: 10, Admitted: 5, Shed: 3, // 2 ops unaccounted
			MaxQueued: 9,
		},
	}
	vs := bad.Violations()
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %d: %v", len(vs), vs)
	}
	h.noteViolations(vs)
	if h.failures != 2 {
		t.Fatalf("accumulator = %d, want 2", h.failures)
	}

	// A faultsweep row that lost acknowledged bytes despite a surviving
	// replica is a violation; one with replication 1 is not.
	loss := experiments.FaultSweepRow{
		FaultSweepCase: experiments.FaultSweepCase{Replication: 2},
		DataLossBytes:  4096,
	}
	if vs := loss.Violations(); len(vs) != 1 {
		t.Fatalf("want 1 data-loss violation, got %v", vs)
	}
	loss.Replication = 1
	if vs := loss.Violations(); len(vs) != 0 {
		t.Fatalf("replication-1 loss is not a violation, got %v", vs)
	}
}

// TestCheckFlags: flag values and combinations the harness cannot run
// are rejected with a message naming the flag, instead of falling
// through to the experiment list or being silently ignored.
func TestCheckFlags(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing")
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args string
		want string // "" = accepted
	}{
		{"-exp fig6a", ""},
		{"-fuzz 50", ""},
		{"-exp all -scale paper -whatif nic=2x", ""},
		{"-scale default -replay b.trace", ""},
		{"-fuzz -3", "-fuzz"},
		{"-exp fig6a -scale huge", "-scale"},
		{"-exp fig6a -whatif nic=2x", "-whatif"},
		{"-exp fig6a -replay b.trace", "-replay"},

		// More than one mode.
		{"-fuzz 1 -exp table1", "-exp conflicts with -fuzz"},
		{"-fuzzspec r.spec -fuzz 2", "-fuzz conflicts with -fuzzspec"},
		{"-replay x.trace -fuzz 1", "-fuzz conflicts with -replay"},
		{"-exp table1 -list", "-exp conflicts with -list"},
		{"-replay x.trace -tracediff a.trace,b.trace", "-replay conflicts with -tracediff"},
		{"-fuzz 0 -exp table1", ""},

		// Flags whose mode or experiment was not selected.
		{"-exp crashsweep -out " + dir, ""},
		{"-exp all -out " + dir, ""},
		{"-exp table1 -out " + dir, ""},
		{"-exp tracesweep -out " + dir, ""},
		{"-replay b.trace -out " + dir, ""},
		{"-tracediff a.trace,b.trace -out " + dir, ""},
		{"-out " + dir, "-out"},
		{"-list -out " + dir, "-out"},
		{"-fuzz 1 -out " + dir, "-out"},
		{"-fuzzspec r.spec -out " + dir, "-out"},
		{"-replay b.trace -config K -admission", ""},
		{"-replay b.trace -config k", ""},
		{"-replay b.trace -config F/K", ""},
		{"-replay b.trace -config Z", "-config"},
		{"-exp table1 -config bogus", "-config"},
		{"-exp table1 -config D", "-config"},
		{"-exp table1 -admission", "-admission"},
		{"-fuzz 50 -seed 7 -fuzzdir ''", ""},
		{"-exp table1 -seed 7", "-seed"},
		{"-fuzz 0 -seed 7", "-seed"},
		{"-exp table1 -fuzzdir out", "-fuzzdir"},
		{"-fuzzspec r.spec -seed 7", "-seed"},
		{"-exp table1 -whatif nic=2x -config bogus -admission -seed 7", "-whatif"},
		{"-exp faultsweep -trace t.json -metrics m.json -blame b.json -record r.trace", ""},
		{"-replay b.trace -record k.trace", ""},
		{"-fuzz 1 -trace t.json -metrics m.json -record r.trace", "-trace"},
		{"-fuzz 1 -metrics m.json", "-metrics"},
		{"-fuzz 1 -record r.trace", "-record"},
		{"-replay b.trace -trace t.json", "-trace"},
		{"-replay b.trace -metrics m.json", "-metrics"},
		{"-replay b.trace -blame b.json", "-blame"},
		{"-fuzzspec r.spec -blame b.json", "-blame"},
		{"-fuzzspec r.spec -record r.trace", "-record"},
		{"-tracediff a.trace,b.trace -trace t.json", "-trace"},
		{"-tracediff a.trace,b.trace -record r.trace", "-record"},
		{"-trace t.json", "-trace"},
		{"-metrics m.json", "-metrics"},
		{"-blame b.json", "-blame"},
		{"-record r.trace", "-record"},

		// Output paths whose directory does not exist, or is a file.
		{"-exp fig9r -trace " + missing + "/x.json", "-trace"},
		{"-exp fig9r -metrics " + missing + "/m.json", "-metrics"},
		{"-exp fig9r -blame " + missing + "/b.json", "-blame"},
		{"-exp fig9r -record " + missing + "/r.trace", "-record"},
		{"-replay b.trace -record " + missing + "/k.trace", "-record"},
		{"-exp crashsweep -out " + missing, "-out"},
		{"-exp tracesweep -out " + file, "-out"},
		{"-tracediff a.trace,b.trace -out " + missing, "-out"},
		{"-exp fig9r -trace " + file + "/x.json", "-trace"},
		{"-exp faultsweep -trace " + dir + "/t.json -metrics " + dir + "/m.csv -blame " + dir + "/b.json", ""},
		// -metrics and -blame write JSON or CSV, by the extension in any
		// case; any other extension is refused before anything runs.
		{"-exp table1 -metrics m.CSV -blame b.Json", ""},
		{"-exp table1 -metrics m.txt", "-metrics: m.txt must end in .json or .csv"},
		{"-exp table1 -blame b", "-blame: b must end in .json or .csv"},
		{"-exp table1 -metrics m.json -blame b.csv.gz", "-blame"},
		{"-exp fig6c -cpuprofile " + missing + "/cpu.pprof", "-cpuprofile"},
		{"-fuzz 5 -cpuprofile " + file + "/cpu.pprof", "-cpuprofile"},
		{"-exp fig6c -cpuprofile " + dir + "/cpu.pprof", ""},
		{"-fuzz 5 -cpuprofile " + dir + "/cpu.pprof", ""},

		// Positional arguments, before or after the flags.
		{"bogus -exp table1 -scale quick", `unexpected argument "bogus"`},
		{"-exp table1 -scale quick extra", `unexpected argument "extra"`},
		{"-list extra", `unexpected argument "extra"`},
		{"-exp table1 -- -scale", `unexpected argument "-scale"`},
	}
	for _, c := range cases {
		var args []string
		for _, a := range strings.Fields(c.args) {
			args = append(args, strings.Trim(a, "'"))
		}
		fs := flag.NewFlagSet("danausbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, args)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%q: rejected: %v", c.args, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%q: error %v does not name %s", c.args, err, c.want)
		}
	}
}

// TestOutMatchesGolden: -out writes the quick crashsweep's and
// tracesweep's files and the K replay's diff of the tracesweep baseline
// byte-equal to their copies in testdata/golden (the tracesweep
// baseline trace itself is not pinned there).
func TestOutMatchesGolden(t *testing.T) {
	dir := t.TempDir()
	o, err := parseFlags(flag.NewFlagSet("danausbench", flag.ContinueOnError),
		[]string{"-exp", "crashsweep", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range experiments.Table() {
		if e.Name == "crashsweep" || e.Name == "tracesweep" {
			h.runOne(e, io.Discard, io.Discard)
		}
	}
	h.replay = filepath.Join(dir, "tracesweep-baseline.trace")
	h.replayFile(core.ConfigK)
	if h.failures != 0 {
		t.Fatalf("%d invariant violation(s)", h.failures)
	}

	for _, name := range []string{"crashsweep-recovery.csv", "tracesweep-diff.csv", "replay-diff.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata/golden/%s:\n%s", name, name, got)
		}
	}
}

// TestStdoutIsSimulatedOnly: an experiment's stdout holds simulated
// results only. A plain run and one under the CLI's own attach hook
// (-metrics set) print the bytes testdata/golden/harness-quick.txt
// holds for table1 and table2, and for fig6c, whose four testbeds the
// hook records; each experiment's wall-clock "done in" line goes to
// the timing writer instead.
func TestStdoutIsSimulatedOnly(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", "harness-quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"fig6c", "table1", "table2"} // -exp all order
	var want strings.Builder
	for _, name := range names {
		_, rest, ok := strings.Cut(string(golden), "=== "+name+" (")
		section, _, ok2 := strings.Cut(rest, "--- "+name+"\n\n")
		if !ok || !ok2 {
			t.Fatalf("harness-quick.txt has no closed %s section", name)
		}
		want.WriteString("=== " + name + " (" + section + "--- " + name + "\n\n")
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	for _, args := range [][]string{{"-exp", "all"}, {"-exp", "all", "-metrics", metrics}} {
		o, err := parseFlags(flag.NewFlagSet("danausbench", flag.ContinueOnError), args)
		if err != nil {
			t.Fatal(err)
		}
		h, err := newHarness(o)
		if err != nil {
			t.Fatal(err)
		}
		var stdout, timing strings.Builder
		for _, name := range names {
			for _, e := range experiments.Table() {
				if e.Name == name {
					h.runOne(e, &stdout, &timing)
				}
			}
		}
		if stdout.String() != want.String() {
			t.Errorf("%q: stdout differs from harness-quick.txt\n--- got\n%s--- want\n%s", args, stdout.String(), want.String())
		}
		lines := strings.Split(strings.TrimSuffix(timing.String(), "\n"), "\n")
		if len(lines) != len(names) {
			t.Fatalf("%q: timing writer got %q, want one line per experiment", args, timing.String())
		}
		for i, l := range lines {
			if !strings.HasPrefix(l, "--- "+names[i]+" done in ") {
				t.Errorf("%q: timing line %q, want --- %s done in <t>", args, l, names[i])
			}
		}
		wantRuns := 0
		if o.metrics != "" {
			wantRuns = 4
		}
		if len(h.obsRuns) != wantRuns {
			t.Errorf("%q: the attach hook recorded %d testbed(s), want %d", args, len(h.obsRuns), wantRuns)
		}
	}
}

// TestListMatchesTable: -list prints exactly the experiment table's
// names, sorted, each once — Table() is the only list of harness
// entries and holds no duplicate name.
func TestListMatchesTable(t *testing.T) {
	var want []string
	seen := map[string]bool{}
	for _, e := range experiments.Table() {
		if seen[e.Name] {
			t.Errorf("Table() lists %s twice", e.Name)
		}
		seen[e.Name] = true
		want = append(want, e.Name)
	}
	sort.Strings(want)
	if !seen["fuzzsweep"] {
		t.Error("Table() has no fuzzsweep entry")
	}

	var out strings.Builder
	writeList(&out, sortedTable())
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if lines[0] != "experiments:" {
		t.Fatalf("-list header = %q", lines[0])
	}
	var got []string
	for _, l := range lines[1:] {
		got = append(got, strings.TrimPrefix(l, "  "))
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("-list = %v, want %v", got, want)
	}
}

// TestCleanOverloadRowPasses confirms a consistent row yields no
// violations (so healthy sweeps keep exit status zero).
func TestCleanOverloadRowPasses(t *testing.T) {
	ok := experiments.OverloadRow{
		OverloadCase: experiments.OverloadCase{Label: "D+adm", Multiplier: 2},
		QueueCap:     32,
		Admission: vfsapi.AdmissionStats{
			Offered: 100, Admitted: 90, Shed: 10, MaxQueued: 32,
		},
	}
	if vs := ok.Violations(); len(vs) != 0 {
		t.Fatalf("clean row flagged: %v", vs)
	}
}

// TestRecordWithoutCaptureFails: -record on an experiment that observes
// no run through the CLI's attach hook (table1 computes its rows;
// blamesweep uses its own recorders) writes no trace and fails with a
// message naming the path, rather than exiting 0 having done nothing.
func TestRecordWithoutCaptureFails(t *testing.T) {
	for _, name := range []string{"table1", "blamesweep"} {
		path := filepath.Join(t.TempDir(), "r.trace")
		o, err := parseFlags(flag.NewFlagSet("danausbench", flag.ContinueOnError),
			[]string{"-exp", name, "-record", path})
		if err != nil {
			t.Fatal(err)
		}
		h, err := newHarness(o)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range experiments.Table() {
			if e.Name == name {
				h.runOne(e, io.Discard, io.Discard)
			}
		}
		want := "record: no run recorded an op stream; " + path + " not written"
		if err := h.exportTraces(); err == nil || err.Error() != want {
			t.Errorf("-exp %s -record: exportTraces = %v, want %q", name, err, want)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("-exp %s -record: %s exists (stat: %v)", name, path, err)
		}
	}
}
