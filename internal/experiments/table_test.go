package experiments

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestHarnessQuickSections renders the fast harness experiments through
// the experiment table at QuickScale and requires the exact bytes the
// committed harness_quick.txt holds between each "=== <name>" header and
// its "--- <name> done in" line. A probe or table change that shifts a
// single simulated op fails here rather than only in a manual harness
// diff. The rows' Violations are checked too. monitorsweep has its own
// test, TestMonitorSweepAcceptance, which runs the same check.
func TestHarnessQuickSections(t *testing.T) {
	for _, name := range []string{"crashsweep", "faultsweep", "fuzzsweep", "overloadsweep", "tracesweep", "table1", "table2"} {
		checkQuickSection(t, name)
	}
}

// checkQuickSection renders one experiment at QuickScale, reports every
// row's Violations and requires the section's harness_quick.txt bytes.
// Each file the experiment exports (Experiment.Files) that
// testdata/golden pins must equal its copy there; the tracesweep
// baseline trace is not pinned.
func checkQuickSection(t *testing.T, name string) {
	t.Helper()
	golden, err := os.ReadFile("../../harness_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	var exp Experiment
	for _, e := range Table() {
		if e.Name == name {
			exp = e
		}
	}
	want := harnessSection(t, string(golden), name)
	var got strings.Builder
	var rows []Row
	exp.Render(&got, Run{Scale: QuickScale}, func(r Row) {
		for _, v := range r.Violations() {
			t.Errorf("%s: %s", name, v)
		}
		rows = append(rows, r)
	})
	if got.String() != want {
		t.Errorf("%s: rendered section differs from harness_quick.txt\n--- got\n%s--- want\n%s", name, got.String(), want)
	}
	if exp.Files == nil {
		return
	}
	compared := 0
	for _, f := range exp.Files(rows) {
		pinned, err := os.ReadFile("../../testdata/golden/" + f.Name)
		if os.IsNotExist(err) {
			continue
		}
		compared++
		var b bytes.Buffer
		if err == nil {
			err = f.Write(&b)
		}
		if err != nil {
			t.Errorf("%s: %s: %v", name, f.Name, err)
		} else if !bytes.Equal(b.Bytes(), pinned) {
			t.Errorf("%s: %s differs from testdata/golden\n--- got\n%s--- want\n%s", name, f.Name, b.Bytes(), pinned)
		}
	}
	if compared == 0 {
		t.Errorf("%s: testdata/golden pins none of its files", name)
	}
}

// TestConcurrentObservedSections renders nine harness sections at
// once, one goroutine each, every section under its own Run.Attach:
// a recorder sampling every 10 ms, as danausbench -trace attaches, plus
// a testbed count. Each section must print its harness_quick.txt bytes
// and its hook must see every testbed the section builds (the run
// counts danausbench -trace reports), so a runner that drops the hook
// fails here, and under -race the test checks that concurrent runs
// share no state.
func TestConcurrentObservedSections(t *testing.T) {
	golden, err := os.ReadFile("../../harness_quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	table := map[string]Experiment{}
	for _, e := range Table() {
		table[e.Name] = e
	}
	wantRuns := map[string]int{
		"fig1": 4, "fig6c": 4, "fig11a": 24, "fig11b": 24, "ablations": 4,
		"crashsweep": 3, "faultsweep": 4, "overloadsweep": 8, "tracesweep": 4,
	}
	var wg sync.WaitGroup
	for name, wantN := range wantRuns {
		want := harnessSection(t, string(golden), name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs := 0
			attach := func(tb *core.Testbed) {
				tb.AttachObserver(obs.New(obs.Config{Clock: tb.Eng.Now, SampleInterval: 10 * time.Millisecond}))
				runs++
			}
			var got strings.Builder
			table[name].Render(&got, Run{Scale: QuickScale, Attach: attach}, nil)
			if got.String() != want {
				t.Errorf("%s: observed section differs from harness_quick.txt\n--- got\n%s--- want\n%s", name, got.String(), want)
			}
			if runs != wantN {
				t.Errorf("%s: Attach saw %d testbeds, want %d", name, runs, wantN)
			}
		}()
	}
	wg.Wait()
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
