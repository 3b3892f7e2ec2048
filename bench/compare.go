package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDecl
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords reads the untraced runs of a result file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out, sc.Err()
}

func values(rs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict is the outcome for one (metric, workload) pair.
type verdict struct {
	Base, Change [3]float64 // quartiles
	Wins, Pairs  int
	Outcome      string
}

// judge applies the claim rule: a gain needs at least ten pairs, the
// change winning nine tenths of them, and a median gap wider than the
// parent's interquartile range. A median worse by more than bound (a
// share of the parent's median) is a regression; a parent spread wider
// than bound leaves the pair unresolved unless every change run beats
// every parent run.
func judge(base, change []float64, higherIsBetter bool, bound float64) verdict {
	better := func(x, y float64) bool {
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	v := verdict{Base: quartiles(base), Change: quartiles(change), Pairs: min(len(base), len(change))}
	for i := 0; i < v.Pairs; i++ {
		if better(change[i], base[i]) {
			v.Wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
		}
	}
	bm, cm := v.Base[1], v.Change[1]
	worse := (cm - bm) / bm
	if higherIsBetter {
		worse = -worse
	}
	iqr := v.Base[2] - v.Base[0]
	switch {
	case v.Pairs >= 10 && 10*v.Wins >= 9*v.Pairs && math.Abs(cm-bm) > iqr && better(cm, bm):
		v.Outcome = "improved"
	case worse > bound:
		v.Outcome = "regressed"
	case iqr/bm > bound && !allBetter:
		v.Outcome = "unresolved"
	default:
		v.Outcome = "unchanged"
	}
	return v
}

// failures sums, over the runs of one workload, the benchmark's failed
// and attempted cases and the simulated op errors and attempts in the
// digests.
type failures struct {
	failed, attempted, simErrors, simAttempted uint64
}

func (f failures) share() float64 { return float64(f.failed) / float64(max(f.attempted, 1)) }
func (f failures) simShare() float64 {
	return float64(f.simErrors) / float64(max(f.simAttempted, 1))
}

func failuresOf(rs []record, workload string) failures {
	var f failures
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		f.failed += r.Failed
		f.attempted += r.Attempted
		for _, d := range r.Digests {
			f.simErrors += d.Errors
			f.simAttempted += d.Ops + d.Errors
		}
	}
	return f
}

// digestDiffs lists the cases whose digest differs between two runs of
// one workload at one seed: a change that only speeds the simulator up
// leaves them all equal.
func digestDiffs(base, change []record, workload string) []string {
	bySeed := map[int64]map[string]digest{}
	for _, r := range base {
		if r.Workload == workload {
			bySeed[r.Seed] = r.Digests
		}
	}
	var out []string
	for _, r := range change {
		ref, ok := bySeed[r.Seed]
		if r.Workload != workload || !ok {
			continue
		}
		for name, d := range r.Digests {
			if want, ok := ref[name]; ok && !sameDigest(want, d) {
				out = append(out, fmt.Sprintf("seed %d case %s", r.Seed, name))
			}
		}
	}
	sort.Strings(out)
	return out
}

// compareFiles prints a verdict for every (end-to-end metric, workload)
// pair of two result files and reports whether any regressed. A
// workload also regresses when the change fails a larger share of its
// cases or of its simulated ops, or simulates a case differently at the
// same seed.
func compareFiles(basePath, changePath, specPath string, w io.Writer) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, fmt.Errorf("%w (run -compare from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(w, "%-20s %-14s %-36s %-36s %-7s %s\n", "workload", "metric", "base median [p25 p75] n", "change median [p25 p75] n", "wins", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			b, c := values(base, wl.Name, m.Name), values(change, wl.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-20s %-14s no runs on one side\n", wl.Name, m.Name)
				continue
			}
			v := judge(b, c, m.Better == "higher", m.Bound)
			regressed = regressed || v.Outcome == "regressed"
			fmt.Fprintf(w, "%-20s %-14s %-36s %-36s %-7s %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", v.Base[1], v.Base[0], v.Base[2], len(b)),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", v.Change[1], v.Change[0], v.Change[2], len(c)),
				fmt.Sprintf("%d/%d", v.Wins, v.Pairs), v.Outcome)
		}
		fb, fc := failuresOf(base, wl.Name), failuresOf(change, wl.Name)
		outcome := "unchanged"
		if fc.share() > fb.share() || fc.simShare() > fb.simShare() {
			outcome, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-20s %-14s %-36s %-36s %-7s %s\n", wl.Name, "failed_share",
			fmt.Sprintf("%.4g cases, %.4g sim ops", fb.share(), fb.simShare()),
			fmt.Sprintf("%.4g cases, %.4g sim ops", fc.share(), fc.simShare()), "", outcome)
		if diffs := digestDiffs(base, change, wl.Name); len(diffs) > 0 {
			regressed = true
			fmt.Fprintf(w, "%-20s simulated results differ: %s\n", wl.Name, strings.Join(diffs, ", "))
		}
	}
	return regressed, nil
}
