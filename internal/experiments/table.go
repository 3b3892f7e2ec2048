package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/fuzz"
	"repro/internal/workloads"
)

// Row is one printed result of a harness experiment: String renders
// it as the harness prints it, minus the two-space row indent.
type Row interface {
	String() string
}

// Violations describes every invariant r breaks; nil when clean or
// when r checks none. A row that checks invariants (the crash, fault,
// overload, trace, monitor and fuzz sweeps') has a Violations method;
// the harness turns any violation into a nonzero exit status.
func Violations(r Row) []string {
	if c, ok := r.(interface{ Violations() []string }); ok {
		return c.Violations()
	}
	return nil
}

// Experiment is one entry of the harness table: `danausbench -exp
// Name` prints Title, then every row Run emits.
type Experiment struct {
	Name string
	// Title heads the printed section. An experiment whose heading
	// depends on the scale leaves it empty and emits the heading as its
	// first row.
	Title string
	// Raw rows are free-form reports, printed without the row indent.
	Raw bool
	Run func(run Run, emit func(Row))
	// Files, when set, turns the rows Run emitted into the artifact
	// files the experiment exports (danausbench -out DIR writes each
	// under DIR).
	Files func(rows []Row) []File
}

// File is one exported artifact: a fixed file name and the writer of
// its content.
type File struct {
	Name  string
	Write func(io.Writer) error
}

// Render runs the experiment under run and writes its title and rows
// to w, handing each row to onRow (when non-nil) right after it is
// written.
func (e Experiment) Render(w io.Writer, run Run, onRow func(Row)) {
	if e.Title != "" {
		fmt.Fprintln(w, e.Title)
	}
	indent := "  "
	if e.Raw {
		indent = ""
	}
	e.Run(run, func(r Row) {
		fmt.Fprintln(w, indent+r.String())
		if onRow != nil {
			onRow(r)
		}
	})
}

// Table returns the harness experiments: every figure and table of the
// paper's evaluation, the ablations, and the sweep families including
// the fuzz sweep. It is the only list of harness entries.
func Table() []Experiment {
	dfk := []core.Configuration{core.ConfigD, core.ConfigF, core.ConfigK}
	return []Experiment{
		{Name: "fig1", Title: "Fig 1: Fileserver under kernel I/O contention (kernel client only)",
			Run: each(Fig1Cases(), RunInterference)},
		{Name: "fig6a", Title: "Fig 6a: Fileserver vs RandomIO interference (K vs D)",
			Run: each(Fig6aCases(), RunInterference)},
		{Name: "fig6b", Title: "Fig 6b: Fileserver vs Webserver interference (K vs D)",
			Run: each(Fig6bCases(), RunInterference)},
		{Name: "fig6c", Title: "Fig 6c: Sysbench and Fileserver latency under colocation",
			Run: each(Fig6cCases(), RunSysbench)},
		{Name: "fig7a", Title: "Fig 7 scaleout: KV put latency, private client per pool",
			Run: grid(Fig7aConfigs(), Fig7ScaleoutCounts(), func(c core.Configuration, n int, run Run) KVRow {
				return RunKVScaleout(c, n, PhasePut, run)
			})},
		{Name: "fig7b", Title: "Fig 7 scaleout: KV get (out-of-core) latency, private client per pool",
			Run: grid(Fig7aConfigs(), Fig7ScaleoutCounts(), func(c core.Configuration, n int, run Run) KVRow {
				return RunKVScaleout(c, n, PhaseGet, run)
			})},
		{Name: "fig7c", Title: "Fig 7 scaleup: KV put latency, cloned containers over shared client",
			Run: grid(Fig7cConfigs(), Fig7ScaleupCounts(), func(c core.Configuration, n int, run Run) KVRow {
				return RunKVScaleup(c, n, PhasePut, run)
			})},
		{Name: "fig7d", Title: "Fig 7 scaleup: KV get latency, cloned containers over shared client",
			Run: grid(Fig7cConfigs(), Fig7ScaleupCounts(), func(c core.Configuration, n int, run Run) KVRow {
				return RunKVScaleup(c, n, PhaseGet, run)
			})},
		{Name: "fig8", Title: "Fig 8: webserver container startup scaleup (real time, context switches)",
			Run: grid(Fig8Configs(), Fig8Counts(), RunStartupScaleup)},
		{Name: "fig9w", Title: "Fig 9: Seqwrite scaleout",
			Run: grid(dfk, Fig9PoolCounts(), func(c core.Configuration, n int, run Run) ScaleoutRow {
				return RunSeqIOScaleout(c, n, true, run)
			})},
		{Name: "fig9r", Title: "Fig 9: Seqread scaleout",
			Run: grid(dfk, Fig9PoolCounts(), func(c core.Configuration, n int, run Run) ScaleoutRow {
				return RunSeqIOScaleout(c, n, false, run)
			})},
		{Name: "fig10", Title: "Fig 10: Fileserver scaleout",
			Run: grid(dfk, Fig10PoolCounts(), RunFileserverScaleout)},
		{Name: "fig11a", Title: "Fig 11: Fileappend scaleup (timespan, max memory)",
			Run: grid(Fig11Configs(), Fig11Counts(), func(c core.Configuration, n int, run Run) FileIORow {
				return RunFileIOScaleup(c, n, true, run)
			})},
		{Name: "fig11b", Title: "Fig 11: Fileread scaleup (timespan, max memory)",
			Run: grid(Fig11Configs(), Fig11Counts(), func(c core.Configuration, n int, run Run) FileIORow {
				return RunFileIOScaleup(c, n, false, run)
			})},
		{Name: "table1", Title: "Table 1: client system components", Run: table1},
		{Name: "table2", Title: "Table 2: contention workload symbols", Run: func(_ Run, emit func(Row)) {
			for _, r := range workloads.Table2() {
				emit(Line(fmt.Sprintf("%-8s %s", r[0], r[1])))
			}
		}},
		{Name: "ablations", Title: "Design-choice ablations (DESIGN.md / paper §3, §6.3.2)",
			Run: all(AllAblations)},
		{Name: "faultsweep", Title: "Fault sweep: recovery and isolation under deterministic fault schedules",
			Run: func(run Run, emit func(Row)) { each(FaultSweepCases(run.Scale), RunFaultSweep)(run, emit) }},
		{Name: "blamesweep", Title: "Blame sweep: critical-path decomposition and per-tenant interference", Raw: true,
			Run: each(BlameSweepCases(), func(c BlameSweepCase, run Run) BlameRow {
				rep, _ := RunBlameSweep(c, run.Scale, nil)
				return BlameRow{Case: c, Report: rep}
			})},
		{Name: "overloadsweep", Title: "Overload sweep: victim tail latency and load shedding under open-loop overload",
			Run: all(RunOverloadSweep)},
		{Name: "crashsweep", Title: "Crash sweep: recovery time and blast radius of client-side crashes (D vs F vs K)",
			Run: each(CrashSweepCases(), RunCrashSweep), Files: crashSweepFiles},
		{Name: "tracesweep", Title: "Trace sweep: record a production-shaped run under D, replay it byte-identically under other configs",
			Run: all(RunTraceSweep), Files: traceSweepFiles},
		{Name: "monitorsweep", Title: "Monitor sweep: live SLO burn-rate alert timelines under overload and crash (D+adm vs K)",
			Run: each(MonitorCases(), func(c MonitorCase, run Run) MonitorRow {
				return RunMonitorCase(c, run.Scale)
			}), Files: monitorFiles},
		{Name: "fuzzsweep", Raw: true, Run: fuzzSweep},
	}
}

// fuzzSweep runs a fixed-seed fuzz sweep sized by the run's scale
// (heavier audits use danausbench -fuzz N -seed S): its heading, then
// the sweep's progress output as one row.
func fuzzSweep(run Run, emit func(Row)) {
	n := 10
	switch {
	case run.Factor >= 1:
		n = 200
	case run.Factor >= 0.1:
		n = 50
	}
	emit(Line(fmt.Sprintf("Fuzz sweep: %d seeded scenarios through the invariant registry", n)))
	var out strings.Builder
	sum, err := fuzz.Sweep(fuzz.Options{N: n, Seed: 1, Out: &out})
	emit(fuzzRow{text: strings.TrimSuffix(out.String(), "\n"), violations: sum.Violations, err: err})
}

// fuzzRow is a fuzz sweep's progress output; checker violations and a
// sweep error fail the run.
type fuzzRow struct {
	text       string
	violations int
	err        error
}

func (r fuzzRow) String() string { return r.text }

func (r fuzzRow) Violations() []string {
	var v []string
	if r.err != nil {
		v = append(v, "fuzzsweep: "+r.err.Error())
	}
	if r.violations > 0 {
		v = append(v, fmt.Sprintf("fuzzsweep: %d checker violation(s)", r.violations))
	}
	return v
}

// each emits one row per case.
func each[C any, R Row](cases []C, runCase func(C, Run) R) func(Run, func(Row)) {
	return func(run Run, emit func(Row)) {
		for _, c := range cases {
			emit(runCase(c, run))
		}
	}
}

// grid emits one row per configuration and count, configurations
// outermost.
func grid[R Row](cfgs []core.Configuration, counts []int, runPoint func(core.Configuration, int, Run) R) func(Run, func(Row)) {
	return func(run Run, emit func(Row)) {
		for _, cfg := range cfgs {
			for _, n := range counts {
				emit(runPoint(cfg, n, run))
			}
		}
	}
}

// all emits the rows of a sweep that runs as a whole.
func all[R Row](runSweep func(Run) []R) func(Run, func(Row)) {
	return func(run Run, emit func(Row)) {
		for _, r := range runSweep(run) {
			emit(r)
		}
	}
}

// table1 emits the paper's Table 1 configuration inventory.
func table1(_ Run, emit func(Row)) {
	emit(Line("Symbol  Union           UnionCache  Backend     ClientCache"))
	for _, r := range [][5]string{
		{"D", "Danaus (opt.)", "-", "Danaus", "UlcC"},
		{"K", "-", "-", "CephFS", "PagC"},
		{"F", "-", "-", "ceph-fuse", "UlcC"},
		{"FP", "-", "-", "ceph-fuse", "UlcC+PagC"},
		{"K/K", "AUFS", "PagC", "CephFS", "PagC"},
		{"F/K", "unionfs-fuse", "-", "CephFS", "PagC"},
		{"F/F", "unionfs-fuse", "-", "ceph-fuse", "UlcC"},
		{"FP/FP", "unionfs-fuse", "PagC", "ceph-fuse", "UlcC+PagC"},
	} {
		emit(Line(fmt.Sprintf("%-7s %-15s %-11s %-11s %s", r[0], r[1], r[2], r[3], r[4])))
	}
}

// Line is a preformatted row with no invariants.
type Line string

func (l Line) String() string { return string(l) }

// BlameRow is one blame-sweep case: its blame report, rendered in full
// and followed by a blank line.
type BlameRow struct {
	Case   BlameSweepCase
	Report blame.Report
}

func (r BlameRow) String() string {
	var b strings.Builder
	blame.Render(&b, r.Report)
	return b.String()
}

func (r InterferenceRow) String() string {
	return fmt.Sprintf("%-14s %9.1f MB/s   neighbor-cores %6.1f%%   lock wait/req %-12v hold/req %v",
		r.Label, r.FLSThroughputMBps, r.NeighborCoreUtilPct, r.LockWaitPerReq, r.LockHoldPerReq)
}

func (r SysbenchRow) String() string {
	return fmt.Sprintf("%-14s ssb-p99 %-12v fls-avg %-12v ssb-cores %6.1f%%",
		r.Label, r.SSBLatencyP99, r.FLSLatencyAvg, r.SSBCoreUtilPct)
}
