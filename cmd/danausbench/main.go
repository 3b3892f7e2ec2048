// Command danausbench regenerates the paper's evaluation figures on the
// simulated testbed.
//
// Usage:
//
//	danausbench -list
//	danausbench -exp fig6a [-scale quick|default|paper]
//	danausbench -exp all -scale default
//	danausbench -exp faultsweep -trace trace.json -metrics metrics.json
//	danausbench -exp blamesweep -blame blame.json -whatif lockcs=0.5,flusher=pinned
//
// Each experiment prints the same rows/series the paper reports; see
// EXPERIMENTS.md for the paper-vs-measured record. With -trace and/or
// -metrics, every testbed built by the selected experiments records
// cross-layer spans and per-tenant metrics (see OBSERVABILITY.md);
// the trace loads in the Perfetto UI and -metrics accepts a .csv
// suffix for the time-series alone.
//
// -blame writes the latency blame analysis (critical-path buckets per
// tenant plus the interference matrix) of every recorded run to the
// given .json or .csv file. -whatif re-runs each blamesweep case under
// a modified cost model ("nic=2x,osd=2x,lockcs=0.5,flusher=pinned")
// and reports predicted-vs-measured per-tenant mean latency; with
// -blame the comparison also lands in <base>-whatif.json.
//
// -out DIR writes the selected experiments' files under DIR, each with
// a fixed name: crashsweep-recovery.csv, tracesweep-baseline.trace,
// tracesweep-diff.csv, and monitorsweep-<case>-windows.csv and
// -alerts.csv per monitorsweep case (testdata/golden pins all but the
// baseline trace).
//
// Op-trace record/replay (see TRACES.md):
//
//	danausbench -exp tracesweep -out out
//	danausbench -replay out/tracesweep-baseline.trace -config K -record k.trace -out out
//	danausbench -tracediff out/tracesweep-baseline.trace,k.trace -out out
//
// -record captures the VFS op stream of every observed run, one trace
// per testbed, or with -replay the replayed trace. -replay reissues a
// recorded trace against the chosen client configuration and diffs the
// result against the recording, -tracediff two trace files offline;
// -out DIR writes the diff as DIR/replay-diff.csv or DIR/tracediff.csv.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fuzz"
	"repro/internal/obs"
	"repro/internal/trace"
)

// options is the parsed command line.
type options struct {
	exp, scale                string
	list                      bool
	trace, metrics, blame     string
	whatIf, out, record       string
	fuzzN                     int
	fuzzSeed                  int64
	fuzzDir, fuzzSpec         string
	replay, config, traceDiff string
	admission                 bool
	cpuProfile                string
	set                       map[string]bool // flags given explicitly
}

// harness is one invocation's state: the options and run it executes
// under, and what its rows and observed testbeds leave for export at
// exit.
type harness struct {
	*options
	run experiments.Run
	// parsedWhatIf is the parsed -whatif, nil when unset.
	parsedWhatIf *blame.WhatIf

	// failures counts the invariant violations experiment rows report
	// (Row.Violations). Outside -fuzz mode they turn the exit status
	// nonzero so CI catches a run whose rows printed fine but broke a
	// correctness property.
	failures int
	// obsRuns holds one recorder per observed testbed, in construction
	// order; opCaptures the per-run op captures, parallel to obsRuns.
	obsRuns    []obs.Run
	opCaptures []*trace.Recorder
	// blameReports and whatIfReports accumulate the blame analyses of
	// blamesweep runs (which manage their own recorders) for -blame.
	blameReports  []blame.Report
	whatIfReports []blame.WhatIfReport
}

// newHarness builds the state of an experiment or replay invocation.
// Experiments are observed through h.attach when -trace, -metrics,
// -blame or -record asks for recorders.
func newHarness(o *options) (*harness, error) {
	h := &harness{options: o, run: experiments.Run{Scale: scales[o.scale]}}
	if o.whatIf != "" {
		w, err := blame.ParseWhatIf(o.whatIf)
		if err != nil {
			return nil, err
		}
		h.parsedWhatIf = &w
	}
	if o.exp != "" && (o.trace != "" || o.metrics != "" || o.blame != "" || o.record != "") {
		h.run.Attach = h.attach
	}
	return h, nil
}

// noteViolations reports invariant violations and accumulates them
// into the process exit status.
func (h *harness) noteViolations(vs []string) {
	for _, v := range vs {
		fmt.Fprintln(os.Stderr, "INVARIANT VIOLATION: "+v)
	}
	h.failures += len(vs)
}

// attach is the Run.Attach hook of observed experiments: each testbed
// gets its own recorder (runs stay separable in the exported
// artifacts) sampling utilization every 10 ms of virtual time. With
// -record, each recorder additionally feeds a per-run op capture.
func (h *harness) attach(tb *core.Testbed) {
	rec := obs.New(obs.Config{
		Clock:          tb.Eng.Now,
		SampleInterval: 10 * time.Millisecond,
	})
	tb.AttachObserver(rec)
	label := fmt.Sprintf("run%d", len(h.obsRuns))
	if h.record != "" {
		capRec := trace.NewRecorder(label, 0)
		capRec.Attach(rec)
		h.opCaptures = append(h.opCaptures, capRec)
	}
	h.obsRuns = append(h.obsRuns, obs.Run{Label: label, Rec: rec})
}

// parseFlags defines the harness flags on fs, parses args and checks
// the result.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{}
	fs.StringVar(&o.exp, "exp", "", "experiment id (see -list) or 'all'")
	fs.StringVar(&o.scale, "scale", "quick", "experiment scale: quick, default or paper")
	fs.BoolVar(&o.list, "list", false, "list experiments")
	fs.StringVar(&o.trace, "trace", "", "write a Perfetto trace-event JSON of all runs to this file")
	fs.StringVar(&o.metrics, "metrics", "", "write per-tenant metrics of all runs to this file (.json or .csv)")
	fs.StringVar(&o.blame, "blame", "", "write the latency blame analysis of all runs to this file (.json or .csv)")
	fs.StringVar(&o.whatIf, "whatif", "", "blamesweep what-if spec, e.g. nic=2x,osd=2x,lockcs=0.5,flusher=pinned")
	fs.IntVar(&o.fuzzN, "fuzz", 0, "run a deterministic fuzz sweep of N scenarios and exit (see FUZZING in EXPERIMENTS.md)")
	fs.Int64Var(&o.fuzzSeed, "seed", 1, "scenario generator seed for -fuzz")
	fs.StringVar(&o.fuzzDir, "fuzzdir", "fuzz-repros", "directory for shrunk reproducer specs of failing fuzz scenarios ('' disables)")
	fs.StringVar(&o.fuzzSpec, "fuzzspec", "", "replay one fuzz reproducer spec file and check its invariants")
	fs.StringVar(&o.out, "out", "", "write the artifact files of the selected experiments, -replay or -tracediff under this directory")
	fs.StringVar(&o.record, "record", "", "write the recorded op trace to this file (see TRACES.md)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded op trace against -config and exit")
	fs.StringVar(&o.config, "config", "D", "client configuration for -replay: D K F FP K/K F/K F/F FP/FP")
	fs.BoolVar(&o.admission, "admission", false, "enable the overload-admission policy for -replay")
	fs.StringVar(&o.traceDiff, "tracediff", "", "compare two recorded op traces given as a.trace,b.trace and exit")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.set = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	return o, checkFlags(o)
}

// scales maps -scale names onto experiment sizings.
var scales = map[string]experiments.Scale{
	"quick":   experiments.QuickScale,
	"default": experiments.DefaultScale,
	"paper":   experiments.PaperScale,
}

// checkFlags rejects flag values and combinations the harness cannot
// run, naming the offending flag: among them a second mode, every flag
// given explicitly whose mode or experiment was not selected, which
// would otherwise be silently ignored, and every output path whose
// directory does not exist.
func checkFlags(o *options) error {
	if _, ok := scales[o.scale]; !ok {
		return fmt.Errorf("-scale: unknown scale %q (want quick, default or paper)", o.scale)
	}
	if o.fuzzN < 0 {
		return fmt.Errorf("-fuzz wants a scenario count >= 0, got %d", o.fuzzN)
	}
	var modes []string
	for _, f := range []string{"exp", "list", "fuzz", "fuzzspec", "replay", "tracediff"} {
		if o.set[f] && (f != "fuzz" || o.fuzzN > 0) {
			modes = append(modes, "-"+f)
		}
	}
	if len(modes) > 1 {
		return fmt.Errorf("%s conflicts with %s: give one mode", modes[0], modes[1])
	}
	if o.replay != "" {
		if _, err := core.ParseConfiguration(o.config); err != nil {
			return fmt.Errorf("-config: %v", err)
		}
	}
	runs := func(name string) bool { return o.exp == name || o.exp == "all" }
	for _, r := range []struct {
		flag  string
		valid bool
		needs string
	}{
		{"trace", o.exp != "", "-exp"},
		{"metrics", o.exp != "", "-exp"},
		{"blame", o.exp != "", "-exp"},
		{"record", o.exp != "" || o.replay != "", "-exp or -replay"},
		{"out", o.exp != "" || o.replay != "" || o.traceDiff != "", "-exp, -replay or -tracediff"},
		{"whatif", runs("blamesweep"), "-exp blamesweep (or all)"},
		{"config", o.replay != "", "-replay"},
		{"admission", o.replay != "", "-replay"},
		{"seed", o.fuzzN > 0, "-fuzz N"},
		{"fuzzdir", o.fuzzN > 0, "-fuzz N"},
	} {
		if o.set[r.flag] && !r.valid {
			return fmt.Errorf("-%s requires %s", r.flag, r.needs)
		}
	}
	// Output files are written after the runs: a missing directory must
	// fail now, not once the experiment is done.
	if o.out != "" && !isDir(o.out) {
		return fmt.Errorf("-out: output directory %s does not exist", o.out)
	}
	for _, out := range []struct{ flag, path string }{
		{"trace", o.trace},
		{"metrics", o.metrics},
		{"blame", o.blame},
		{"record", o.record},
		{"cpuprofile", o.cpuProfile},
	} {
		if out.path == "" {
			continue
		}
		if dir := filepath.Dir(out.path); !isDir(dir) {
			return fmt.Errorf("-%s: output directory %s does not exist", out.flag, dir)
		}
	}
	return nil
}

// isDir reports whether path names an existing directory.
func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// sortedTable returns the harness table in name order, the order of
// -list and -exp all.
func sortedTable() []experiments.Experiment {
	table := experiments.Table()
	sort.Slice(table, func(i, j int) bool { return table[i].Name < table[j].Name })
	return table
}

// writeList prints the -list output.
func writeList(w io.Writer, table []experiments.Experiment) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range table {
		fmt.Fprintln(w, "  "+e.Name)
	}
}

// stopProfile ends the -cpuprofile capture, if one is running.
var stopProfile = func() {}

// startProfile starts writing a CPU profile of the whole run to path.
func startProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	stopProfile = func() {
		pprof.StopCPUProfile()
		f.Close()
		stopProfile = func() {}
	}
	return nil
}

// exit ends the process with code, after the CPU profile.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.cpuProfile != "" {
		if err := startProfile(o.cpuProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer stopProfile()
	}

	if o.traceDiff != "" {
		runTraceDiff(o.traceDiff, o.out)
		return
	}

	if o.fuzzSpec != "" {
		f, err := os.Open(o.fuzzSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		sc, err := fuzz.ParseSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		if len(fuzz.RunSpec(os.Stdout, sc)) > 0 {
			exit(1)
		}
		return
	}
	if o.fuzzN > 0 {
		sum, err := fuzz.Sweep(fuzz.Options{
			N: o.fuzzN, Seed: o.fuzzSeed, Out: os.Stdout, ReproDir: o.fuzzDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if sum.Violations > 0 {
			exit(1)
		}
		return
	}

	h, err := newHarness(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	table := sortedTable()
	if o.list || (o.exp == "" && o.replay == "") {
		writeList(os.Stdout, table)
		return
	}

	if o.replay != "" {
		cfg, _ := core.ParseConfiguration(o.config) // checked by checkFlags
		h.replayFile(cfg)
		h.exitOnViolations()
		return
	}

	var selected []experiments.Experiment
	for _, e := range table {
		if o.exp == "all" || e.Name == o.exp {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", o.exp)
		exit(2)
	}
	for _, e := range selected {
		h.runOne(e)
	}
	h.exportObs()
	h.exportBlame()
	h.exportTraces()
	h.exitOnViolations()
}

// exportTraces writes the generic per-run op captures collected by
// h.attach to -record: to that path directly for a single run, or to
// <base>-runN<ext> each when several testbeds recorded.
func (h *harness) exportTraces() {
	ext := filepath.Ext(h.record)
	for i, capRec := range h.opCaptures {
		out := h.record
		if len(h.opCaptures) > 1 {
			out = strings.TrimSuffix(h.record, ext) + fmt.Sprintf("-run%d", i) + ext
		}
		writeTrace(out, capRec.Snapshot())
	}
}

// replayFile replays the -replay trace file against one client
// configuration and diffs the result against the recording.
func (h *harness) replayFile(cfg core.Configuration) {
	tr, err := trace.ReadFile(h.replay)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	c := experiments.TraceCase{Label: cfg.String(), Config: cfg, Admission: h.admission}
	if h.admission {
		c.Label += "+adm"
	}
	fmt.Printf("Replay %s (label %q, %d ops) under %s\n", h.replay, tr.Label, len(tr.Ops), c.Label)
	row := experiments.ReplayTraceUnder(tr, c, h.run)
	fmt.Println("  " + row.String())
	h.noteViolations(row.Violations())
	if h.record != "" {
		writeTrace(h.record, row.Trace)
	}
	if h.out != "" {
		writeOut(h.out, experiments.File{Name: "replay-diff.csv", Write: trace.Compare(tr, row.Trace).WriteCSV})
	}
}

// runTraceDiff compares two trace files given as "a.trace,b.trace",
// writing the diff as tracediff.csv under out when out is set.
func runTraceDiff(spec, out string) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "-tracediff wants two comma-separated trace files")
		exit(2)
	}
	a, err := trace.ReadFile(parts[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	b, err := trace.ReadFile(parts[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}
	d := trace.Compare(a, b)
	d.Render(os.Stdout)
	if out != "" {
		writeOut(out, experiments.File{Name: "tracediff.csv", Write: d.WriteCSV})
	}
}

// exitOnViolations terminates with a nonzero status if any experiment
// reported an invariant violation.
func (h *harness) exitOnViolations() {
	if h.failures > 0 {
		fmt.Fprintf(os.Stderr, "%d invariant violation(s)\n", h.failures)
		exit(1)
	}
}

// exportBlame writes the blame reports of all runs — the blamesweep's
// own plus an analysis of every recorder h.attach collected — to the
// -blame file, and any what-if comparisons next to it as
// <base>-whatif.json.
func (h *harness) exportBlame() {
	path := h.blame
	if path == "" {
		return
	}
	reports := append([]blame.Report{}, h.blameReports...)
	for _, run := range h.obsRuns {
		reports = append(reports, blame.Analyze(run.Label, run.Rec))
	}
	writeFile(path, "blame export", func(w io.Writer) error {
		if strings.EqualFold(filepath.Ext(path), ".csv") {
			return blame.WriteCSV(w, reports)
		}
		return blame.WriteJSON(w, reports)
	})
	fmt.Printf("blame: %d run(s) -> %s\n", len(reports), path)

	if len(h.whatIfReports) > 0 {
		wiPath := strings.TrimSuffix(path, filepath.Ext(path)) + "-whatif.json"
		writeFile(wiPath, "what-if export", func(w io.Writer) error {
			for _, rep := range h.whatIfReports {
				if err := blame.WriteWhatIfJSON(w, rep); err != nil {
					return err
				}
			}
			return nil
		})
		fmt.Printf("what-if: %d comparison(s) -> %s\n", len(h.whatIfReports), wiPath)
	}
}

// exportObs writes the collected recorders to the -trace and -metrics
// files and reports where they landed.
func (h *harness) exportObs() {
	if h.trace != "" {
		if err := obs.WriteTraceFile(h.trace, h.obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
			exit(1)
		}
		fmt.Printf("trace: %d run(s) -> %s\n", len(h.obsRuns), h.trace)
	}
	if h.metrics != "" {
		if err := obs.WriteMetricsFile(h.metrics, h.obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "metrics export: %v\n", err)
			exit(1)
		}
		fmt.Printf("metrics: %d run(s) -> %s\n", len(h.obsRuns), h.metrics)
	}
}

// runOne runs one experiment of the table, checking every row and
// collecting what the artifact flags export; with -out it then writes
// the experiment's files.
func (h *harness) runOne(e experiments.Experiment) {
	fmt.Printf("=== %s (factor %.2f, window %v) ===\n", e.Name, h.run.Factor, h.run.Duration)
	start := time.Now()
	// Rows are kept only for -out: a monitorsweep row holds a testbed.
	keep := h.out != "" && e.Files != nil
	var rows []experiments.Row
	e.Render(os.Stdout, h.run, func(r experiments.Row) {
		h.collect(r)
		if keep {
			rows = append(rows, r)
		}
	})
	if keep {
		writeOut(h.out, e.Files(rows)...)
	}
	fmt.Printf("--- %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
}

// collect checks one printed row for invariant violations and gathers
// the blame reports -blame exports. Under -whatif a blame row is
// followed by its what-if comparison.
func (h *harness) collect(r experiments.Row) {
	h.noteViolations(r.Violations())
	if r, ok := r.(experiments.BlameRow); ok {
		h.blameReports = append(h.blameReports, r.Report)
		if h.parsedWhatIf != nil {
			measured, _ := experiments.RunBlameSweep(r.Case, h.run.Scale, h.parsedWhatIf)
			cmp := blame.CompareWhatIf(*h.parsedWhatIf, r.Report, measured)
			h.whatIfReports = append(h.whatIfReports, cmp)
			blame.RenderWhatIf(os.Stdout, cmp)
			fmt.Println()
		}
	}
}

// writeOut writes each file under dir and reports where it landed.
func writeOut(dir string, files ...experiments.File) {
	for _, f := range files {
		path := filepath.Join(dir, f.Name)
		writeFile(path, f.Name, f.Write)
		fmt.Println("out ->", path)
	}
}

// writeTrace writes one recorded op trace and reports where it landed.
func writeTrace(path string, tr *trace.Trace) {
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "trace record: %v\n", err)
		exit(1)
	}
	fmt.Printf("record: %d op(s) -> %s\n", len(tr.Ops), path)
}

// writeFile creates path and fills it with emit, exiting 1 with a
// message naming what failed on any error.
func writeFile(path, what string, emit func(w io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		exit(1)
	}
}
