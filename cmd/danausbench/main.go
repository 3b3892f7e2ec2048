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

// invariantFailures counts the invariant violations experiment rows
// report (Row.Violations). Outside -fuzz mode they turn the exit status
// nonzero so CI catches a run whose rows printed fine but broke a
// correctness property.
var invariantFailures int

// noteViolations reports invariant violations and accumulates them
// into the process exit status.
func noteViolations(vs []string) {
	for _, v := range vs {
		fmt.Fprintln(os.Stderr, "INVARIANT VIOLATION: "+v)
	}
	invariantFailures += len(vs)
}

// obsRuns collects one recorder per testbed built while -trace or
// -metrics is set, in construction order, for export at exit.
var obsRuns []obs.Run

// blameReports and whatIfReports accumulate the blame analyses of
// blamesweep runs (which manage their own recorders) for export via
// -blame; whatIf is the parsed -whatif spec, nil when unset.
var (
	blameReports  []blame.Report
	whatIfReports []blame.WhatIfReport
	whatIf        *blame.WhatIf
)

// recordTracePath (-record) receives the recorded op trace: the
// tracesweep baseline when -exp tracesweep, otherwise one trace per
// observed run. diffCSVPath (-diffcsv) receives trace-diff rows.
// sweepArtifacts routes the two into writeSweepArtifacts when the
// sweep was selected directly (under -exp all the generic capture path
// owns them instead). opCaptures holds the generic per-run capture
// recorders, parallel to obsRuns.
var (
	recordTracePath string
	diffCSVPath     string
	sweepArtifacts  bool
	captureOps      bool
	opCaptures      []*trace.Recorder
)

// enableObservability points experiments.Observer at a recorder
// factory: each testbed gets its own recorder (runs stay separable in
// the exported artifacts) sampling utilization every 10 ms of virtual
// time. With -record, each recorder additionally feeds a per-run op
// capture.
func enableObservability() {
	experiments.Observer = func(tb *core.Testbed) {
		rec := obs.New(obs.Config{
			Clock:          tb.Eng.Now,
			SampleInterval: 10 * time.Millisecond,
		})
		tb.AttachObserver(rec)
		if captureOps {
			capRec := trace.NewRecorder(fmt.Sprintf("run%d", len(obsRuns)), 0)
			capRec.Attach(rec)
			opCaptures = append(opCaptures, capRec)
		}
		obsRuns = append(obsRuns, obs.Run{
			Label: fmt.Sprintf("run%d", len(obsRuns)),
			Rec:   rec,
		})
	}
}

// options is the parsed command line. The artifact paths the export
// code reads (-crashcsv, -monitor, -record, -diffcsv) live in package
// variables instead.
type options struct {
	exp, scale                string
	list                      bool
	trace, metrics, blame     string
	whatIf                    string
	fuzzN                     int
	fuzzSeed                  int64
	fuzzDir, fuzzSpec         string
	replay, config, traceDiff string
	admission                 bool
	set                       map[string]bool // flags given explicitly
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
	fs.StringVar(&crashCSVPath, "crashcsv", "", "write crashsweep rows (recovery time, blast radius) as CSV to this file")
	fs.StringVar(&monitorBasePath, "monitor", "", "write monitorsweep telemetry artifacts (windowed CSV + alert ledger per case) using this base path")
	fs.StringVar(&recordTracePath, "record", "", "write the recorded op trace to this file (see TRACES.md)")
	fs.StringVar(&diffCSVPath, "diffcsv", "", "write trace-diff rows as CSV (with -exp tracesweep, -replay or -tracediff)")
	fs.StringVar(&o.replay, "replay", "", "replay a recorded op trace against -config and exit")
	fs.StringVar(&o.config, "config", "D", "client configuration for -replay: D, F or K")
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
	runs := func(name string) bool { return o.exp == name || o.exp == "all" }
	for _, r := range []struct {
		flag  string
		valid bool
		needs string
	}{
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
	scale := scales[o.scale]

	if o.traceDiff != "" {
		runTraceDiff(o.traceDiff, diffCSVPath)
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

	if o.whatIf != "" {
		w, err := blame.ParseWhatIf(o.whatIf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		whatIf = &w
	}

	table := sortedTable()
	if o.list || (o.exp == "" && o.replay == "") {
		writeList(os.Stdout, table)
		return
	}

	if o.replay != "" {
		runReplayFile(o.replay, o.config, o.admission, scale)
		exitOnViolations()
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

	// tracesweep writes its own -record/-diffcsv artifacts when selected
	// directly; any other experiment gets a generic per-run op capture.
	sweepArtifacts = o.exp == "tracesweep"
	captureOps = recordTracePath != "" && !sweepArtifacts

	if o.trace != "" || o.metrics != "" || o.blame != "" || captureOps {
		enableObservability()
	}
	for _, e := range selected {
		runOne(e, scale)
	}
	exportObs(o.trace, o.metrics)
	exportBlame(o.blame)
	exportTraces(recordTracePath)
	exitOnViolations()
}

// exportTraces writes the generic per-run op captures collected via
// the Observer hook: to the given path directly for a single run, or
// to <base>-runN<ext> each when several testbeds recorded.
func exportTraces(path string) {
	if path == "" {
		return
	}
	ext := filepath.Ext(path)
	for i, capRec := range opCaptures {
		out := path
		if len(opCaptures) > 1 {
			out = strings.TrimSuffix(path, ext) + fmt.Sprintf("-run%d", i) + ext
		}
		writeTrace(out, capRec.Snapshot())
	}
}

// parseConfig maps a -config letter onto the client configuration.
func parseConfig(name string) (core.Configuration, error) {
	switch strings.ToUpper(name) {
	case "D":
		return core.ConfigD, nil
	case "F":
		return core.ConfigF, nil
	case "K":
		return core.ConfigK, nil
	}
	return core.ConfigD, fmt.Errorf("unknown configuration %q (want D, F or K)", name)
}

// runReplayFile replays a recorded trace file against one client
// configuration and diffs the result against the recording.
func runReplayFile(path, configName string, admission bool, scale experiments.Scale) {
	tr, err := trace.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	cfg, err := parseConfig(configName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	c := experiments.TraceCase{Label: strings.ToUpper(configName), Config: cfg, Admission: admission}
	if admission {
		c.Label += "+adm"
	}
	fmt.Printf("Replay %s (label %q, %d ops) under %s\n", path, tr.Label, len(tr.Ops), c.Label)
	row := experiments.ReplayTraceUnder(tr, c, scale)
	fmt.Println("  " + row.String())
	noteViolations(row.Violations())
	if recordTracePath != "" {
		writeTrace(recordTracePath, row.Trace)
	}
	if diffCSVPath != "" {
		writeDiffCSV(diffCSVPath, trace.Compare(tr, row.Trace))
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
func exitOnViolations() {
	if invariantFailures > 0 {
		fmt.Fprintf(os.Stderr, "%d invariant violation(s)\n", invariantFailures)
		os.Exit(1)
	}
}

// exportBlame writes the blame reports of all runs — the blamesweep's
// own plus an analysis of every recorder the -trace/-metrics hook
// collected — to the requested file, and any what-if comparisons next
// to it as <base>-whatif.json.
func exportBlame(path string) {
	if path == "" {
		return
	}
	reports := append([]blame.Report{}, blameReports...)
	for _, run := range obsRuns {
		reports = append(reports, blame.Analyze(run.Label, run.Rec))
	}
	writeFile(path, "blame export", func(w io.Writer) error {
		if strings.EqualFold(filepath.Ext(path), ".csv") {
			return blame.WriteCSV(w, reports)
		}
		return blame.WriteJSON(w, reports)
	})
	fmt.Printf("blame: %d run(s) -> %s\n", len(reports), path)

	if len(whatIfReports) > 0 {
		wiPath := strings.TrimSuffix(path, filepath.Ext(path)) + "-whatif.json"
		writeFile(wiPath, "what-if export", func(w io.Writer) error {
			for _, rep := range whatIfReports {
				if err := blame.WriteWhatIfJSON(w, rep); err != nil {
					return err
				}
			}
			return nil
		})
		fmt.Printf("what-if: %d comparison(s) -> %s\n", len(whatIfReports), wiPath)
	}
}

// exportObs writes the collected recorders to the requested artifact
// files and reports where they landed.
func exportObs(tracePath, metricsPath string) {
	if tracePath != "" {
		if err := obs.WriteTraceFile(tracePath, obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "trace export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace: %d run(s) -> %s\n", len(obsRuns), tracePath)
	}
	if metricsPath != "" {
		if err := obs.WriteMetricsFile(metricsPath, obsRuns); err != nil {
			fmt.Fprintf(os.Stderr, "metrics export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("metrics: %d run(s) -> %s\n", len(obsRuns), metricsPath)
	}
}

// runOne runs one experiment of the table, checking every row and
// collecting what the artifact flags export.
func runOne(e experiments.Experiment, scale experiments.Scale) {
	fmt.Printf("=== %s (factor %.2f, window %v) ===\n", e.Name, scale.Factor, scale.Duration)
	start := time.Now()
	e.Render(os.Stdout, scale, func(r experiments.Row) { collect(r, scale) })
	writeSweepArtifacts()
	fmt.Printf("--- %s done in %v\n\n", e.Name, time.Since(start).Round(time.Millisecond))
}

// crashRows and traceRows hold the rows of the running crashsweep and
// tracesweep until writeSweepArtifacts exports them.
var (
	crashRows []experiments.CrashSweepRow
	traceRows []experiments.TraceRow
)

// collect checks one printed row for invariant violations and gathers
// what the artifact flags export. Under -whatif a blame row is followed
// by its what-if comparison.
func collect(r experiments.Row, scale experiments.Scale) {
	noteViolations(r.Violations())
	switch r := r.(type) {
	case experiments.BlameRow:
		blameReports = append(blameReports, r.Report)
		if whatIf != nil {
			measured, _ := experiments.RunBlameSweep(r.Case, scale, whatIf)
			cmp := blame.CompareWhatIf(*whatIf, r.Report, measured)
			whatIfReports = append(whatIfReports, cmp)
			blame.RenderWhatIf(os.Stdout, cmp)
			fmt.Println()
		}
	case experiments.CrashSweepRow:
		crashRows = append(crashRows, r)
	case experiments.TraceRow:
		traceRows = append(traceRows, r)
	case experiments.MonitorRow:
		exportMonitorCase(r)
	}
}

// writeSweepArtifacts exports what the experiment just run left in
// crashRows and traceRows: the -crashcsv file and, for a directly
// selected tracesweep, the -record baseline and the -diffcsv file.
func writeSweepArtifacts() {
	if crashCSVPath != "" && len(crashRows) > 0 {
		writeFile(crashCSVPath, "crashsweep csv", func(w io.Writer) error {
			fmt.Fprintln(w, "label,config,replication,victim_mbps,victim_errors,bystander_mbps,bystander_errors,affected_tenants,queue_shed,recovery_ns,victim_repair_ns,durability_loss_bytes")
			for _, r := range crashRows {
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
		fmt.Printf("crashsweep: %d row(s) -> %s\n", len(crashRows), crashCSVPath)
	}
	if sweepArtifacts && len(traceRows) > 0 {
		if recordTracePath != "" {
			writeTrace(recordTracePath, traceRows[0].Trace)
		}
		if diffCSVPath != "" {
			writeSweepDiffCSV(diffCSVPath, traceRows)
		}
	}
	crashRows, traceRows = nil, nil
}

// writeSweepDiffCSV folds every replay's diff against the baseline (the
// first row) into one CSV, with a leading column naming the replay case.
func writeSweepDiffCSV(path string, rows []experiments.TraceRow) {
	n := 0
	us := func(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }
	writeFile(path, "diff csv", func(w io.Writer) error {
		fmt.Fprintln(w, "replay,tenant,op,count_a,count_b,p50_a_us,p99_a_us,p999_a_us,p50_b_us,p99_b_us,p999_b_us,ratio_p99,ratio_p999")
		for _, row := range rows[1:] {
			for _, r := range trace.Compare(rows[0].Trace, row.Trace).Rows {
				kind := r.Kind
				if kind == "" {
					kind = "*"
				}
				fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.3f,%.3f\n",
					row.Trace.Label, r.Tenant, kind, r.A.Count, r.B.Count,
					us(r.A.P50), us(r.A.P99), us(r.A.P999),
					us(r.B.P50), us(r.B.P99), us(r.B.P999),
					r.RatioP99(), r.RatioP999())
				n++
			}
		}
		return nil
	})
	fmt.Printf("diff: %d row(s) -> %s\n", n, path)
}

// crashCSVPath, when set via -crashcsv, receives the crashsweep rows
// as CSV (one line per case) for CI artifact collection.
var crashCSVPath string

// monitorBasePath, when set via -monitor, receives the live-telemetry
// artifacts of each monitorsweep case: <base>-<case>-windows.csv (the
// windowed per-tenant aggregates) and <base>-<case>-alerts.csv (the SLO
// burn-rate alert ledger). Both are deterministic: repeated runs of the
// same scale produce byte-identical files.
var monitorBasePath string

// exportMonitorCase writes one monitorsweep case's windows CSV and
// alert ledger under monitorBasePath.
func exportMonitorCase(row experiments.MonitorRow) {
	if monitorBasePath == "" {
		return
	}
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			return r
		}
		return '_'
	}, strings.ToLower(row.Label+"-"+row.Fault))
	base := strings.TrimSuffix(monitorBasePath, filepath.Ext(monitorBasePath))
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
