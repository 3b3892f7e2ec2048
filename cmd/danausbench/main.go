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
// Op-trace record/replay (see TRACES.md):
//
//	danausbench -exp tracesweep -record base.trace -diffcsv diff.csv
//	danausbench -replay base.trace -config K -diffcsv k.csv
//	danausbench -tracediff base.trace,k.trace
//
// -record captures the VFS op stream: with -exp tracesweep it writes
// the production-shaped baseline recording; with any other experiment
// it writes one trace per observed run. -replay reissues a recorded
// trace against the chosen client configuration and diffs the result
// against the recording; -tracediff compares two trace files offline.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	whatIf                    string
	crashCSV, monitor         string
	record, diffCSV           string
	fuzzN                     int
	fuzzSeed                  int64
	fuzzDir, fuzzSpec         string
	replay, config, traceDiff string
	admission                 bool
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
	// sweepArtifacts routes -record and -diffcsv into
	// writeSweepArtifacts when tracesweep was selected directly (under
	// -exp all the generic capture path owns -record instead);
	// captureOps turns that generic per-run op capture on.
	sweepArtifacts, captureOps bool

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
	// crashRows and traceRows hold the rows of the running crashsweep
	// and tracesweep until writeSweepArtifacts exports them.
	crashRows []experiments.CrashSweepRow
	traceRows []experiments.TraceRow
}

// newHarness builds the state of an experiment or replay invocation.
// Experiments are observed through h.attach when -trace, -metrics,
// -blame or the generic -record capture asks for recorders.
func newHarness(o *options) (*harness, error) {
	h := &harness{options: o, run: experiments.Run{Scale: scales[o.scale]}}
	if o.whatIf != "" {
		w, err := blame.ParseWhatIf(o.whatIf)
		if err != nil {
			return nil, err
		}
		h.parsedWhatIf = &w
	}
	// tracesweep writes its own -record/-diffcsv artifacts when selected
	// directly; any other experiment gets a generic per-run op capture.
	h.sweepArtifacts = o.exp == "tracesweep"
	h.captureOps = o.exp != "" && o.record != "" && !h.sweepArtifacts
	if o.exp != "" && (o.trace != "" || o.metrics != "" || o.blame != "" || h.captureOps) {
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
// the generic -record capture, each recorder additionally feeds a
// per-run op capture.
func (h *harness) attach(tb *core.Testbed) {
	rec := obs.New(obs.Config{
		Clock:          tb.Eng.Now,
		SampleInterval: 10 * time.Millisecond,
	})
	tb.AttachObserver(rec)
	label := fmt.Sprintf("run%d", len(h.obsRuns))
	if h.captureOps {
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
	fs.StringVar(&o.crashCSV, "crashcsv", "", "write crashsweep rows (recovery time, blast radius) as CSV to this file")
	fs.StringVar(&o.monitor, "monitor", "", "write monitorsweep telemetry artifacts (windowed CSV + alert ledger per case) using this base path")
	fs.StringVar(&o.record, "record", "", "write the recorded op trace to this file (see TRACES.md)")
	fs.StringVar(&o.diffCSV, "diffcsv", "", "write trace-diff rows as CSV (with -exp tracesweep, -replay or -tracediff)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded op trace against -config and exit")
	fs.StringVar(&o.config, "config", "D", "client configuration for -replay: D K F FP K/K F/K F/F FP/FP")
	fs.BoolVar(&o.admission, "admission", false, "enable the overload-admission policy for -replay")
	fs.StringVar(&o.traceDiff, "tracediff", "", "compare two recorded op traces given as a.trace,b.trace and exit")
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
// run, naming the offending flag: among them every flag given
// explicitly whose mode or experiment was not selected, which would
// otherwise be silently ignored.
func checkFlags(o *options) error {
	if _, ok := scales[o.scale]; !ok {
		return fmt.Errorf("-scale: unknown scale %q (want quick, default or paper)", o.scale)
	}
	switch {
	case o.fuzzN < 0:
		return fmt.Errorf("-fuzz wants a scenario count >= 0, got %d", o.fuzzN)
	case o.replay != "" && o.exp != "":
		return fmt.Errorf("-replay conflicts with -exp %s", o.exp)
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
		{"whatif", runs("blamesweep"), "-exp blamesweep (or all)"},
		{"crashcsv", runs("crashsweep"), "-exp crashsweep (or all)"},
		{"monitor", runs("monitorsweep"), "-exp monitorsweep (or all)"},
		{"config", o.replay != "", "-replay"},
		{"admission", o.replay != "", "-replay"},
		{"seed", o.fuzzN > 0, "-fuzz N"},
		{"fuzzdir", o.fuzzN > 0, "-fuzz N"},
		{"diffcsv", o.exp == "tracesweep" || o.replay != "" || o.traceDiff != "", "-exp tracesweep, -replay or -tracediff"},
	} {
		if o.set[r.flag] && !r.valid {
			return fmt.Errorf("-%s requires %s", r.flag, r.needs)
		}
	}
	return nil
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

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if o.traceDiff != "" {
		runTraceDiff(o.traceDiff, o.diffCSV)
		return
	}

	if o.fuzzSpec != "" {
		f, err := os.Open(o.fuzzSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc, err := fuzz.ParseSpec(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(fuzz.RunSpec(os.Stdout, sc)) > 0 {
			os.Exit(1)
		}
		return
	}
	if o.fuzzN > 0 {
		sum, err := fuzz.Sweep(fuzz.Options{
			N: o.fuzzN, Seed: o.fuzzSeed, Out: os.Stdout, ReproDir: o.fuzzDir,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if sum.Violations > 0 {
			os.Exit(1)
		}
		return
	}

	h, err := newHarness(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		os.Exit(2)
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
		os.Exit(2)
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
	if h.diffCSV != "" {
		writeDiffCSV(h.diffCSV, trace.Compare(tr, row.Trace))
	}
}

// runTraceDiff compares two trace files given as "a.trace,b.trace".
func runTraceDiff(spec, csvPath string) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		fmt.Fprintln(os.Stderr, "-tracediff wants two comma-separated trace files")
		os.Exit(2)
	}
	a, err := trace.ReadFile(parts[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	b, err := trace.ReadFile(parts[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	d := trace.Compare(a, b)
	d.Render(os.Stdout)
	if csvPath != "" {
		writeDiffCSV(csvPath, d)
	}
}

// writeDiffCSV writes one diff's rows to a CSV file.
func writeDiffCSV(path string, d *trace.Diff) {
	writeFile(path, "diff csv", d.WriteCSV)
	fmt.Printf("diff: %d row(s) -> %s\n", len(d.Rows), path)
}

// exitOnViolations terminates with a nonzero status if any experiment
// reported an invariant violation.
func (h *harness) exitOnViolations() {
	if h.failures > 0 {
		fmt.Fprintf(os.Stderr, "%d invariant violation(s)\n", h.failures)
		os.Exit(1)
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
			os.Exit(1)
		}
		fmt.Printf("trace: %d run(s) -> %s\n", len(h.obsRuns), h.trace)
	}
	if h.metrics != "" {
		if err := obs.WriteMetricsFile(h.metrics, h.obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "metrics export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d run(s) -> %s\n", len(h.obsRuns), h.metrics)
	}
}

// runOne runs one experiment of the table, checking every row and
// collecting what the artifact flags export.
func (h *harness) runOne(e experiments.Experiment) {
	fmt.Printf("=== %s (factor %.2f, window %v) ===\n", e.Name, h.run.Factor, h.run.Duration)
	start := time.Now()
	e.Render(os.Stdout, h.run, h.collect)
	h.writeSweepArtifacts()
	fmt.Printf("--- %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
}

// collect checks one printed row for invariant violations and gathers
// what the artifact flags export. Under -whatif a blame row is followed
// by its what-if comparison.
func (h *harness) collect(r experiments.Row) {
	h.noteViolations(r.Violations())
	switch r := r.(type) {
	case experiments.BlameRow:
		h.blameReports = append(h.blameReports, r.Report)
		if h.parsedWhatIf != nil {
			measured, _ := experiments.RunBlameSweep(r.Case, h.run.Scale, h.parsedWhatIf)
			cmp := blame.CompareWhatIf(*h.parsedWhatIf, r.Report, measured)
			h.whatIfReports = append(h.whatIfReports, cmp)
			blame.RenderWhatIf(os.Stdout, cmp)
			fmt.Println()
		}
	case experiments.CrashSweepRow:
		h.crashRows = append(h.crashRows, r)
	case experiments.TraceRow:
		h.traceRows = append(h.traceRows, r)
	case experiments.MonitorRow:
		h.exportMonitorCase(r)
	}
}

// writeSweepArtifacts exports what the experiment just run left in
// crashRows and traceRows: the -crashcsv file and, for a directly
// selected tracesweep, the -record baseline and the -diffcsv file.
func (h *harness) writeSweepArtifacts() {
	if h.crashCSV != "" && len(h.crashRows) > 0 {
		writeFile(h.crashCSV, "crashsweep csv", func(w io.Writer) error {
			fmt.Fprintln(w, "label,config,replication,victim_mbps,victim_errors,bystander_mbps,bystander_errors,affected_tenants,queue_shed,recovery_ns,victim_repair_ns,durability_loss_bytes")
			for _, r := range h.crashRows {
				fmt.Fprintf(w, "%s,%s,%d,%.2f,%d,%.2f,%d,%d,%d,%d,%d,%d\n",
					r.Label, r.Config, r.Replication,
					r.VictimWriteMBps, r.VictimErrors,
					r.BystanderMBps, r.BystanderErrors,
					r.AffectedTenants, r.QueueShed,
					r.RecoveryTime.Nanoseconds(), r.VictimRepair.Nanoseconds(),
					r.DurabilityViolation)
			}
			return nil
		})
		fmt.Printf("crashsweep: %d row(s) -> %s\n", len(h.crashRows), h.crashCSV)
	}
	if h.sweepArtifacts && len(h.traceRows) > 0 {
		if h.record != "" {
			writeTrace(h.record, h.traceRows[0].Trace)
		}
		if h.diffCSV != "" {
			writeSweepDiffCSV(h.diffCSV, h.traceRows)
		}
	}
	h.crashRows, h.traceRows = nil, nil
}

// writeSweepDiffCSV folds every replay's diff against the baseline (the
// first row) into one CSV, with a leading column naming the replay case.
func writeSweepDiffCSV(path string, rows []experiments.TraceRow) {
	n := 0
	writeFile(path, "diff csv", func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "replay,"+trace.DiffCSVHeader); err != nil {
			return err
		}
		for _, row := range rows[1:] {
			d := trace.Compare(rows[0].Trace, row.Trace)
			if err := d.WriteCSVRows(w, row.Trace.Label); err != nil {
				return err
			}
			n += len(d.Rows)
		}
		return nil
	})
	fmt.Printf("diff: %d row(s) -> %s\n", n, path)
}

// exportMonitorCase writes one monitorsweep case's live-telemetry
// artifacts under the -monitor base path: <base>-<case>-windows.csv
// (the windowed per-tenant aggregates) and <base>-<case>-alerts.csv
// (the SLO burn-rate alert ledger). Both are deterministic: repeated
// runs of the same scale produce byte-identical files.
func (h *harness) exportMonitorCase(row experiments.MonitorRow) {
	if h.monitor == "" {
		return
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '_'
	}, strings.ToLower(row.Label+"-"+row.Fault))
	base := strings.TrimSuffix(h.monitor, filepath.Ext(h.monitor))
	for _, kind := range []string{"windows", "alerts"} {
		path := fmt.Sprintf("%s-%s-%s.csv", base, slug, kind)
		emit := row.Monitor.WriteWindowsCSV
		if kind == "alerts" {
			emit = row.Monitor.WriteAlertsCSV
		}
		writeFile(path, "monitorsweep "+kind, emit)
		fmt.Printf("monitorsweep: %s\n", path)
	}
}

// writeTrace writes one recorded op trace and reports where it landed.
func writeTrace(path string, tr *trace.Trace) {
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintf(os.Stderr, "trace record: %v\n", err)
		os.Exit(1)
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
		os.Exit(1)
	}
}
