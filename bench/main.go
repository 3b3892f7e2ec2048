// Command bench measures how much host time, memory and CPU the
// simulator costs on four workloads, and checks that the simulated
// results it produces stay the same. See README.md.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// committedDigests holds the seed-1 digest of every case; -update-digests
// rewrites it.
//
//go:embed testdata/digests-seed1.json
var committedDigests []byte

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	update   string
	compare  bool
	child    string
}

// run is the command: it returns 0 on success, 1 when a check or the
// measurement fails, and 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every generator seed is derived from")
	fs.IntVar(&o.seconds, "seconds", 30, "host seconds one run measures for")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced passes and reports per-layer metrics")
	fs.StringVar(&o.out, "out", "", "append each run's result as one JSON line to this file")
	fs.StringVar(&o.update, "update-digests", "", "rewrite the seed-1 digest file at this path and exit")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare base.jsonl change.jsonl")
	fs.StringVar(&o.child, "child", "", "measure in this process and print a report (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	selected := allWorkloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", o.workload, workloadNames())
			return 2
		}
		selected = []*workload{w}
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %d\n", o.trace)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1, not %d\n", o.seconds)
		return 2
	}

	if o.child != "" {
		if o.workload == "" {
			fmt.Fprintln(stderr, "bench: -child needs -workload")
			return 2
		}
		if err := runChild(o.child, selected[0], o.seed, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	if o.update != "" {
		if err := updateDigests(o.update, selected); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(stderr, "bench: times will follow the host's speed less closely:", err)
	}
	code := 0
	all := map[string]result{}
	for _, w := range selected {
		res, digests, err := measure(w, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		if o.out != "" {
			if err := appendRecord(o.out, record{w.Name, o.seed, o.trace, o.seconds, digests, res}); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		all[w.Name] = res
	}
	var out any = all
	if len(selected) == 1 {
		out = all[selected[0].Name]
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

func workloadNames() string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// result is the line the benchmark prints for one workload.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one line of a result file (-out), the input of -compare.
type record struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    int               `json:"trace"`
	Seconds  int               `json:"seconds"`
	Digests  map[string]digest `json:"digests"` // case -> digest of the run's first pass
	result
}

func appendRecord(path string, r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure runs one workload, one pass per fresh child process and one
// process at a time, checks its digests and returns its metrics and the
// digests of its first pass. Each case run is one attempted operation,
// and it fails when its digest check does.
func measure(w *workload, o options, log io.Writer) (result, map[string]digest, error) {
	// A traced run leaves room in the budget for its profile and obs
	// passes, which run once each and take longer than an untraced pass.
	reserve := 0
	if o.trace == 1 {
		reserve = 3
	}
	reps, err := passesFor(w, o.seed, time.Duration(o.seconds)*time.Second, reserve)
	if err != nil {
		return result{}, nil, err
	}
	plain := passesOf(reps)
	printSeries(log, w.Name+" (untraced passes; times in reference seconds)", passSeries(plain), endToEnd)
	decls, metrics := endToEnd, plainMetrics(plain)
	if o.trace == 1 {
		prof, err := spawn(childProfile, w, o.seed)
		if err != nil {
			return result{}, nil, err
		}
		shares, err := profileShares(prof.Profile)
		if err != nil {
			return result{}, nil, err
		}
		obsRep, err := spawn(childObs, w, o.seed)
		if err != nil {
			return result{}, nil, err
		}
		reps = append(reps, prof, obsRep)
		decls, metrics = perLayer(), tracedMetrics(plain, prof, obsRep, shares)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		res.Metrics[d.Name] = metricValue{metrics[d.Name], d.Unit}
	}
	for _, r := range reps {
		res.Attempted += uint64(len(r.Pass.Cases))
	}
	problems, failed := checkDigests(w, o.seed, passesOf(reps)...)
	res.Failed = failed
	for _, problem := range problems {
		res.Correct = false
		fmt.Fprintln(log, "bench: digest check:", problem)
	}
	ops, errs := reps[0].Pass.ops()
	fmt.Fprintf(log, "simulated ops per pass: %d completed, %d failed in the simulation\n", ops, errs)
	digests := map[string]digest{}
	for _, c := range reps[0].Pass.Cases {
		digests[c.Name] = c.Digest
	}
	return res, digests, nil
}

// passesFor runs untraced passes of w until the next one and reserve
// more, at the average pass length so far, would end past budget; at
// least one.
func passesFor(w *workload, seed int64, budget time.Duration, reserve int) ([]report, error) {
	var reps []report
	start := time.Now()
	for {
		r, err := spawn(childPlain, w, seed)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		elapsed := time.Since(start)
		if elapsed+elapsed*time.Duration(1+reserve)/time.Duration(len(reps)) > budget {
			return reps, nil
		}
	}
}

func passesOf(reps []report) []pass {
	ps := make([]pass, len(reps))
	for i, r := range reps {
		ps[i] = r.Pass
	}
	return ps
}

// spawn runs one child process for one pass of w and decodes its
// report.
func spawn(kind string, w *workload, seed int64) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe, "-child", kind, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	// The child must not outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stop, samples := make(chan struct{}), make(chan []probeSample)
	go probe(stop, samples)
	out, err := cmd.Output()
	close(stop)
	probed := <-samples
	if err != nil {
		return report{}, fmt.Errorf("%s child: %w", kind, err)
	}
	var r report
	if err := json.Unmarshal(out, &r); err != nil {
		return report{}, fmt.Errorf("%s child report: %w", kind, err)
	}
	r.Pass.Probe = probed
	return r, nil
}

// profileShares folds a CPU profile into module shares and removes it.
func profileShares(path string) (map[string]float64, error) {
	defer os.Remove(path)
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}

// digestFile maps workload -> case -> digest.
type digestFile map[string]map[string]digest

func loadCommitted() (digestFile, error) {
	var d digestFile
	if err := json.Unmarshal(committedDigests, &d); err != nil {
		return nil, fmt.Errorf("committed digests: %w", err)
	}
	return d, nil
}

// sameDigest compares two digests; the event count only when both
// runs counted events.
func sameDigest(a, b digest) bool {
	if a.Events == 0 || b.Events == 0 {
		a.Events, b.Events = 0, 0
	}
	return a == b
}

// checkDigests compares the digest of every case run with the case's
// first run in passes and, for seed 1 or a workload with no seed input,
// with the committed seed-1 digest. It returns a message for each case
// run that differs, and their number.
func checkDigests(w *workload, seed int64, passes ...pass) ([]string, uint64) {
	var committed map[string]digest
	if seed == 1 || w.Seedless {
		all, err := loadCommitted()
		if err != nil {
			return []string{err.Error()}, 0
		}
		committed = all[w.Name]
	}
	var problems []string
	first := map[string]digest{}
	for _, p := range passes {
		for _, c := range p.Cases {
			ref, seen := first[c.Name]
			want, haveWant := committed[c.Name]
			var msg string
			switch {
			case seen && !sameDigest(ref, c.Digest):
				msg = fmt.Sprintf("digest %+v differs from an earlier pass's %+v", c.Digest, ref)
			case (seed == 1 || w.Seedless) && !haveWant:
				msg = "no committed seed-1 digest"
			case haveWant && !sameDigest(c.Digest, want):
				msg = fmt.Sprintf("digest %+v, committed seed-1 digest %+v", c.Digest, want)
			}
			if msg != "" {
				problems = append(problems, fmt.Sprintf("workload %s case %s: %s", w.Name, c.Name, msg))
			}
			// Keep the first run as the reference, or a later equal one
			// that counted engine events.
			if !seen || (msg == "" && ref.Events == 0) {
				first[c.Name] = c.Digest
			}
		}
	}
	return problems, uint64(len(problems))
}

// updateDigests runs one counted pass of each workload at seed 1 and
// writes the digests, keeping those of workloads not selected.
func updateDigests(path string, selected []*workload) error {
	d, err := loadCommitted()
	if err != nil {
		d = digestFile{}
	}
	for _, w := range selected {
		p := runPass(w, 1, &engineCounts{}, nil)
		d[w.Name] = map[string]digest{}
		for _, c := range p.Cases {
			d[w.Name][c.Name] = c.Digest
		}
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
