package fuzz

import (
	"fmt"
	"strings"
	"time"
)

// Oracle evaluates a scenario and returns its invariant violations.
// The shrinker treats it as a black box; DefaultOracle runs the real
// pipeline.
type Oracle func(Scenario) []Violation

// DefaultOracle runs the scenario through Evaluate and the full
// checker registry; a panic in the model is its PanicChecker violation.
func DefaultOracle(sc Scenario) []Violation { return oracleOf(Evaluate)(sc) }

// PanicChecker names the violation of a scenario in which the model
// panicked; its detail is the panic value.
const PanicChecker = "panic"

// evaluate runs eval on sc and checks every invariant on the outcome.
// A panic inside the scenario yields a nil outcome and the panic
// violation instead.
func evaluate(eval func(Scenario) *Outcome, sc Scenario) (out *Outcome, vs []Violation) {
	defer func() {
		if r := recover(); r != nil {
			out, vs = nil, []Violation{{Checker: PanicChecker, Detail: fmt.Sprint(r)}}
		}
	}()
	out = eval(sc)
	return out, CheckAll(out)
}

// oracleOf is the Oracle that evaluates scenarios with eval.
func oracleOf(eval func(Scenario) *Outcome) Oracle {
	return func(sc Scenario) []Violation {
		_, vs := evaluate(eval, sc)
		return vs
	}
}

// minDuration is the shortest measurement window the shrinker tries.
const minDuration = 30 * time.Millisecond

// Shrink reduces a failing scenario to a smaller reproducer that still
// violates the named checker: it greedily drops tenants, drops and
// bisects fault windows, reduces thread counts, and halves the window,
// re-running the oracle after each candidate and keeping every
// reduction that preserves the failure. budget caps oracle
// evaluations (each is a full scenario pipeline); <= 0 means 100.
func Shrink(sc Scenario, checker string, oracle Oracle, budget int) Scenario {
	if budget <= 0 {
		budget = 100
	}
	still := func(c Scenario) bool {
		if budget <= 0 {
			return false
		}
		budget--
		for _, v := range oracle(c) {
			if v.Checker == checker {
				return true
			}
		}
		return false
	}

	cur := sc
	for pass := 0; pass < 8; pass++ {
		improved := false

		// Drop tenants, last first (indices shift on removal).
		for i := len(cur.Tenants) - 1; i >= 0; i-- {
			cand := cur
			cand.Tenants = append(append([]Tenant{}, cur.Tenants[:i]...), cur.Tenants[i+1:]...)
			if still(cand) {
				cur = cand
				improved = true
			}
		}

		// Drop fault windows one at a time.
		windows := cur.ScheduleWindows()
		for i := len(windows) - 1; i >= 0; i-- {
			rest := append(append([]string{}, windows[:i]...), windows[i+1:]...)
			cand := cur
			cand.Schedule = strings.Join(rest, ";")
			if still(cand) {
				cur = cand
				windows = rest
				improved = true
			}
		}
		// Bisect what remains: try keeping only the first half, then
		// only the second (useful when single drops all fail).
		if n := len(windows); n > 1 {
			for _, half := range [][]string{windows[:n/2], windows[n/2:]} {
				cand := cur
				cand.Schedule = strings.Join(half, ";")
				if still(cand) {
					cur = cand
					windows = cand.ScheduleWindows()
					improved = true
					break
				}
			}
		}
		// Event-level minimization: halve each surviving window's span in
		// place (entries stay textual so "@wal" placeholders survive). A
		// reproducer with a 40ms OSD outage that still fails with 20ms is
		// a faster, sharper artifact.
		windows = cur.ScheduleWindows()
		for i := range windows {
			short, ok := halveSpan(windows[i])
			if !ok {
				continue
			}
			next := append([]string{}, windows...)
			next[i] = short
			cand := cur
			cand.Schedule = strings.Join(next, ";")
			if still(cand) {
				cur = cand
				windows = cand.ScheduleWindows()
				improved = true
			}
		}

		// The crash dimension shrinks like any other fault event: drop it
		// if the failure survives without it, else halve its downtime.
		if cur.Crash != "" {
			cand := cur
			cand.Crash = ""
			if still(cand) {
				cur = cand
				improved = true
			} else if short, ok := halveSpan(cur.Crash); ok {
				cand = cur
				cand.Crash = short
				if still(cand) {
					cur = cand
					improved = true
				}
			}
		}

		// Drop the trace-replay dimension when the failure survives
		// without it (its own checker never does, so determinism
		// reproducers keep the dimension).
		if cur.TraceReplay {
			cand := cur
			cand.TraceReplay = false
			if still(cand) {
				cur = cand
				improved = true
			}
		}

		// Same for the telemetry dimension: its own checker needs it, any
		// other failure shrinks to a monitor-free run.
		if cur.Telemetry {
			cand := cur
			cand.Telemetry = false
			if still(cand) {
				cur = cand
				improved = true
			}
		}

		// Reduce tenant thread counts to one.
		for i := range cur.Tenants {
			if cur.Tenants[i].Threads <= 1 {
				continue
			}
			cand := cur
			cand.Tenants = append([]Tenant{}, cur.Tenants...)
			cand.Tenants[i].Threads = 1
			if still(cand) {
				cur = cand
				improved = true
			}
		}

		// Shorten the run.
		if cur.Duration/2 >= minDuration {
			cand := cur
			cand.Duration = cur.Duration / 2
			if still(cand) {
				cur = cand
				improved = true
			}
		}
		if cur.SharedMount {
			cand := cur
			cand.SharedMount = false
			if still(cand) {
				cur = cand
				improved = true
			}
		}

		// Drop the overload dimension entirely, or failing that halve
		// the offered rate (a lighter aggressor shrinks the run).
		if cur.OfferedLoad > 0 {
			cand := cur
			cand.OfferedLoad, cand.AdmitQueue = 0, 0
			if still(cand) {
				cur = cand
				improved = true
			} else if cur.OfferedLoad >= 200 {
				cand = cur
				cand.OfferedLoad = cur.OfferedLoad / 2
				if still(cand) {
					cur = cand
					improved = true
				}
			}
		}

		if !improved || budget <= 0 {
			break
		}
	}
	return cur
}

// halveSpan rewrites a fault entry's trailing "start-end" span to cover
// only the first half of its duration, leaving everything before the
// last ':' (kind, target, "@wal" placeholders) untouched. Returns false
// when the entry has no parseable span or the span is already too short
// to split cleanly.
func halveSpan(entry string) (string, bool) {
	idx := strings.LastIndex(entry, ":")
	if idx < 0 {
		return "", false
	}
	prefix, span := entry[:idx+1], entry[idx+1:]
	startStr, endStr, ok := strings.Cut(span, "-")
	if !ok {
		return "", false
	}
	start, err1 := time.ParseDuration(startStr)
	end, err2 := time.ParseDuration(endStr)
	if err1 != nil || err2 != nil {
		return "", false
	}
	half := (end - start) / 2
	if half < time.Millisecond {
		return "", false
	}
	return fmt.Sprintf("%s%v-%v", prefix, start, start+half), true
}
