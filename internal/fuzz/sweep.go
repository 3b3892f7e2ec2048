package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Options configures a fuzz sweep.
type Options struct {
	// N is the number of scenarios to run.
	N int
	// Seed seeds the scenario generator.
	Seed int64
	// Out receives the sweep's (deterministic) progress lines; nil
	// discards them.
	Out io.Writer
	// ReproDir, when set, receives one shrunk reproducer spec file per
	// failing scenario (created on demand).
	ReproDir string

	// evaluate replaces Evaluate, for tests that inject a failure.
	evaluate func(Scenario) *Outcome
}

const (
	// shrinkBudget caps oracle evaluations per shrink.
	shrinkBudget = 60
	// maxShrinks caps how many failing scenarios a sweep shrinks; the
	// rest are only reported.
	maxShrinks = 5
)

// Summary is the outcome of a sweep.
type Summary struct {
	Scenarios  int
	Violations int
	// ByChecker counts violations per invariant name.
	ByChecker map[string]int
	// AggregateHash fingerprints the whole sweep (every scenario's
	// artifacts and summaries); two runs of the same sweep must match.
	AggregateHash string
	// Repros lists written reproducer spec files.
	Repros []string
}

// Sweep generates and evaluates N seeded scenarios, checks every
// invariant on each, shrinks failures to minimal reproducers, and
// returns the aggregate. A scenario in which the model panics reports a
// PanicChecker violation and the sweep goes on. All output on Out is a
// pure function of (N, Seed): no wall-clock times, no map iteration.
func Sweep(o Options) (Summary, error) {
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.evaluate == nil {
		o.evaluate = Evaluate
	}
	sum := Summary{Scenarios: o.N, ByChecker: map[string]int{}}
	agg := sha256.New()
	shrunk := 0

	for i := 0; i < o.N; i++ {
		sc := Generate(o.Seed, i)
		out, vs := evaluate(o.evaluate, sc)
		if out != nil {
			fmt.Fprintf(agg, "%04d %s %s\n", i, out.Full.ArtifactHash, out.Full.Summary)
		}

		if len(vs) == 0 {
			fmt.Fprintf(o.Out, "fuzz %04d %s ok %s\n", i, sc, out.Full.Summary)
			continue
		}
		sum.Violations += len(vs)
		for _, v := range vs {
			sum.ByChecker[v.Checker]++
			fmt.Fprintf(o.Out, "fuzz %04d %s VIOLATION %s\n", i, sc, v)
			fmt.Fprintf(agg, "%04d VIOLATION %s\n", i, v)
		}

		if shrunk >= maxShrinks {
			continue
		}
		shrunk++
		min := Shrink(sc, vs[0].Checker, oracleOf(o.evaluate), shrinkBudget)
		fmt.Fprintf(o.Out, "fuzz %04d shrunk to: %s\n", i, min)
		if o.ReproDir != "" {
			if err := os.MkdirAll(o.ReproDir, 0o755); err != nil {
				return sum, err
			}
			path := filepath.Join(o.ReproDir, fmt.Sprintf("repro-%04d.spec", i))
			f, err := os.Create(path)
			if err != nil {
				return sum, err
			}
			header := []string{fmt.Sprintf("violation: %s", vs[0])}
			werr := WriteSpec(f, min, header...)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return sum, werr
			}
			sum.Repros = append(sum.Repros, path)
			fmt.Fprintf(o.Out, "fuzz %04d reproducer: %s\n", i, path)
		}
	}

	sum.AggregateHash = hex.EncodeToString(agg.Sum(nil))
	names := make([]string, 0, len(sum.ByChecker))
	for n := range sum.ByChecker {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(o.Out, "fuzz sweep: %d scenario(s), %d violation(s), sweep-hash=%s\n",
		sum.Scenarios, sum.Violations, sum.AggregateHash[:16])
	for _, n := range names {
		fmt.Fprintf(o.Out, "  %-20s %d\n", n, sum.ByChecker[n])
	}
	return sum, nil
}

// RunSpec evaluates one scenario loaded from a spec file and reports
// its violations (the reproducer replay path). A scenario in which the
// model panics reports a PanicChecker violation, as in Sweep.
func RunSpec(out io.Writer, sc Scenario) []Violation { return runSpec(out, sc, Evaluate) }

// runSpec is RunSpec with eval in place of Evaluate.
func runSpec(out io.Writer, sc Scenario, eval func(Scenario) *Outcome) []Violation {
	if out == nil {
		out = io.Discard
	}
	res, vs := evaluate(eval, sc)
	fmt.Fprintf(out, "spec %s\n", sc)
	if res != nil {
		fmt.Fprintf(out, "  full:   %s\n", res.Full.Summary)
		fmt.Fprintf(out, "  replay: %s\n", res.Replay.Summary)
		if res.Solo != nil {
			fmt.Fprintf(out, "  solo:   %s\n", res.Solo.Summary)
		}
	}
	if len(vs) == 0 {
		fmt.Fprintln(out, "  ok: all invariants hold")
	}
	for _, v := range vs {
		fmt.Fprintf(out, "  VIOLATION %s\n", v)
	}
	return vs
}
