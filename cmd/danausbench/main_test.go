package main

import (
	"flag"
	"io"
	"sort"
	"strings"
	"testing"

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

		// Flags whose mode or experiment was not selected.
		{"-exp crashsweep -crashcsv c.csv", ""},
		{"-exp all -crashcsv c.csv -monitor m.csv", ""},
		{"-exp table1 -crashcsv c.csv", "-crashcsv"},
		{"-exp monitorsweep -monitor m.csv", ""},
		{"-exp table1 -monitor m.csv", "-monitor"},
		{"-exp crashsweep -monitor m.csv", "-monitor"},
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
		{"-exp tracesweep -diffcsv d.csv", ""},
		{"-replay b.trace -diffcsv d.csv", ""},
		{"-tracediff a.trace,b.trace -diffcsv d.csv", ""},
		{"-exp table1 -diffcsv d.csv", "-diffcsv"},
		{"-exp all -diffcsv d.csv", "-diffcsv"},
		{"-exp table1 -crashcsv c.csv -monitor m.csv -config bogus -admission -seed 7 -diffcsv d.csv", "-crashcsv"},
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
