package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/vfsapi"
)

// TestNoteViolationsAccumulates checks the satellite invariant plumbing:
// violations reported by experiment rows land in the accumulator that
// turns the exit status nonzero.
func TestNoteViolationsAccumulates(t *testing.T) {
	invariantFailures = 0
	defer func() { invariantFailures = 0 }()

	noteViolations(nil)
	if invariantFailures != 0 {
		t.Fatalf("clean rows counted as failures: %d", invariantFailures)
	}

	// A row whose admission queue overran its cap and whose accounting
	// does not balance must produce two violations.
	bad := experiments.OverloadRow{
		Label: "D+adm", Multiplier: 4, QueueCap: 8,
		Admission: vfsapi.AdmissionStats{
			Offered: 10, Admitted: 5, Shed: 3, // 2 ops unaccounted
			MaxQueued: 9,
		},
	}
	vs := bad.Violations()
	if len(vs) != 2 {
		t.Fatalf("want 2 violations, got %d: %v", len(vs), vs)
	}
	noteViolations(vs)
	if invariantFailures != 2 {
		t.Fatalf("accumulator = %d, want 2", invariantFailures)
	}

	// A faultsweep row that lost acknowledged bytes despite a surviving
	// replica is a violation; one with replication 1 is not.
	loss := experiments.FaultSweepRow{Replication: 2, DataLossBytes: 4096}
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
// through to the experiment list.
func TestCheckFlags(t *testing.T) {
	cases := []struct {
		exp, scale     string
		fuzz           int
		whatIf, replay string
		want           string // "" = accepted
	}{
		{"fig6a", "quick", 0, "", "", ""},
		{"", "quick", 50, "", "", ""},
		{"all", "paper", 0, "nic=2x", "", ""},
		{"", "default", 0, "", "b.trace", ""},
		{"", "quick", -3, "", "", "-fuzz"},
		{"fig6a", "huge", 0, "", "", "-scale"},
		{"fig6a", "quick", 0, "nic=2x", "", "-whatif"},
		{"fig6a", "quick", 0, "", "b.trace", "-replay"},
	}
	for _, c := range cases {
		err := checkFlags(c.exp, c.scale, c.fuzz, c.whatIf, c.replay)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v: rejected: %v", c, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v does not name %s", c, err, c.want)
		}
	}
}

// TestCleanOverloadRowPasses confirms a consistent row yields no
// violations (so healthy sweeps keep exit status zero).
func TestCleanOverloadRowPasses(t *testing.T) {
	ok := experiments.OverloadRow{
		Label: "D+adm", Multiplier: 2, QueueCap: 32,
		Admission: vfsapi.AdmissionStats{
			Offered: 100, Admitted: 90, Shed: 10, MaxQueued: 32,
		},
	}
	if vs := ok.Violations(); len(vs) != 0 {
		t.Fatalf("clean row flagged: %v", vs)
	}
}
