package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestHarnessQuickSections renders the fast harness experiments through
// the experiment table at QuickScale and requires the exact bytes the
// committed harness_quick.txt holds between each "=== <name>" header and
// its "--- <name> done in" line. A probe or table change that shifts a
// single simulated op fails here rather than only in a manual harness
// diff.
func TestHarnessQuickSections(t *testing.T) {
	golden, err := os.ReadFile("../../harness_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]Experiment{}
	for _, e := range Table() {
		table[e.Name] = e
	}
	for _, name := range []string{"crashsweep", "faultsweep", "fuzzsweep", "overloadsweep", "tracesweep", "table1", "table2"} {
		want := harnessSection(t, string(golden), name)
		var got strings.Builder
		table[name].Render(&got, QuickScale, func(r Row) {
			for _, v := range r.Violations() {
				t.Errorf("%s: %s", name, v)
			}
		})
		if got.String() != want {
			t.Errorf("%s: rendered section differs from harness_quick.txt\n--- got\n%s--- want\n%s", name, got.String(), want)
		}
	}
}

// harnessSection returns the lines between an experiment's header and
// its timing line in harness output.
func harnessSection(t *testing.T, out, name string) string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "=== "+name+" (")
	if !ok {
		t.Fatalf("harness output has no %s section", name)
	}
	_, rest, _ = strings.Cut(rest, "\n")
	section, _, ok := strings.Cut(rest, "--- "+name+" done in")
	if !ok {
		t.Fatalf("harness %s section has no timing line", name)
	}
	return section
}
