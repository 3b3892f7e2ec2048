package telemetry

import (
	"fmt"
	"sort"
	"time"
)

// SLO declares a per-tenant service-level objective evaluated online by
// the Monitor. Two flavours share one struct:
//
//   - latency SLO: Target > 0; an op is "bad" when its latency exceeds
//     Target (optionally filtered to a single Op name);
//   - error SLO: Target == 0; an op is "bad" when it returns an error.
//
// Budget is the allowed bad fraction (e.g. 0.01 = 1% of ops may be
// bad). The burn rate of a window is badFraction/Budget: burn 1.0
// consumes the budget exactly, burn 10 consumes it 10x too fast.
//
// Alerting uses the classic multi-window scheme: an alert fires only
// when BOTH the fast window (reacts quickly) and the slow window
// (confirms it is not a blip) burn at >= FireBurn, and clears when
// both drop below ClearBurn. Fire/clear transitions are appended to a
// deterministic alert ledger.
type SLO struct {
	Name   string        // ledger label, e.g. "read-p99"
	Tenant string        // "" = instantiate per observed tenant
	Op     string        // "" = all ops, else e.g. "read"
	Target time.Duration // latency threshold; 0 = error-rate SLO

	Budget    float64 // allowed bad fraction, e.g. 0.01
	FireBurn  float64 // fire when fast AND slow burn >= this
	ClearBurn float64 // clear when fast AND slow burn < this
	MinOps    uint64  // ignore fast windows with fewer ops

	// ExpectedOps, when > 0, is the baseline number of completions
	// expected per fast window (typically a fraction of the unloaded
	// rate). A shortfall counts the missing completions as bad events: a
	// fully starved victim completes almost nothing, so a purely
	// volume-weighted latency burn would read near zero exactly when the
	// service is at its worst — silence must burn budget, not bank it.
	// The penalty applies only inside the armed interval (ArmSLOs), so
	// idle periods before warmup or after the workload stops do not
	// read as outages.
	ExpectedOps uint64
}

func (s SLO) withDefaults() SLO {
	if s.Budget <= 0 {
		s.Budget = 0.01
	}
	if s.FireBurn <= 0 {
		s.FireBurn = 10
	}
	if s.ClearBurn <= 0 {
		s.ClearBurn = 1
	}
	if s.MinOps == 0 {
		s.MinOps = 1
	}
	return s
}

// AlertState is the lifecycle state of one (SLO, tenant) monitor.
type AlertState int

const (
	AlertClear AlertState = iota
	AlertFiring
)

func (s AlertState) String() string {
	if s == AlertFiring {
		return "firing"
	}
	return "clear"
}

// AlertEvent is one fire or clear transition in the alert ledger.
type AlertEvent struct {
	T        time.Duration // virtual time of the window close that flipped state
	Tenant   string
	SLO      string
	State    AlertState
	FastBurn float64 // burn rates at the transition
	SlowBurn float64
}

func (e AlertEvent) String() string {
	return fmt.Sprintf("%12v %-10s %-14s %-6s fast=%.2f slow=%.2f",
		e.T, e.Tenant, e.SLO, e.State, e.FastBurn, e.SlowBurn)
}

// sloCounts is the exact bad/total tally for one fast window. Bad ops
// are counted at ingestion against the SLO target, never re-derived
// from the window histogram, so burn rates are exact.
type sloCounts struct {
	total uint64
	bad   uint64
}

// sloState tracks one (SLO, tenant) pair: the open fast window's
// counts plus a ring of the most recent closed fast windows that
// together form the slow window.
type sloState struct {
	spec   SLO
	tenant string

	open sloCounts   // accumulating fast window
	ring []sloCounts // closed fast windows, ring[head] = oldest
	head int
	n    int // populated entries

	slow  sloCounts // running sum over ring
	state AlertState
}

func newSLOState(spec SLO, tenant string, slowN int) *sloState {
	if slowN < 1 {
		slowN = 1
	}
	return &sloState{spec: spec, tenant: tenant, ring: make([]sloCounts, slowN)}
}

func (s *sloState) record(op string, latency time.Duration, err bool) {
	if s.spec.Op != "" && s.spec.Op != op {
		return
	}
	s.open.total++
	if s.spec.Target > 0 {
		if latency > s.spec.Target {
			s.open.bad++
		}
	} else if err {
		s.open.bad++
	}
}

func burn(c sloCounts, budget float64) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.bad) / float64(c.total) / budget
}

// closeWindow folds the open fast window into the slow ring and
// evaluates the alert condition. armed reports whether the window lies
// inside the SLO arming interval; the ExpectedOps shortfall penalty is
// applied only then. It returns a transition event when the state
// flips, with ok=false otherwise.
func (s *sloState) closeWindow(end time.Duration, armed bool) (AlertEvent, bool) {
	fast := s.open
	s.open = sloCounts{}
	if armed && s.spec.ExpectedOps > 0 && fast.total < s.spec.ExpectedOps {
		fast.bad += s.spec.ExpectedOps - fast.total
		fast.total = s.spec.ExpectedOps
	}

	if s.n == len(s.ring) {
		old := s.ring[s.head]
		s.slow.total -= old.total
		s.slow.bad -= old.bad
	} else {
		s.n++
	}
	s.ring[s.head] = fast
	s.head = (s.head + 1) % len(s.ring)
	s.slow.total += fast.total
	s.slow.bad += fast.bad

	fb := burn(fast, s.spec.Budget)
	sb := burn(s.slow, s.spec.Budget)

	switch s.state {
	case AlertClear:
		if fast.total >= s.spec.MinOps && fb >= s.spec.FireBurn && sb >= s.spec.FireBurn {
			s.state = AlertFiring
			return AlertEvent{T: end, Tenant: s.tenant, SLO: s.spec.Name, State: AlertFiring, FastBurn: fb, SlowBurn: sb}, true
		}
	case AlertFiring:
		if fb < s.spec.ClearBurn && sb < s.spec.ClearBurn {
			s.state = AlertClear
			return AlertEvent{T: end, Tenant: s.tenant, SLO: s.spec.Name, State: AlertClear, FastBurn: fb, SlowBurn: sb}, true
		}
	}
	return AlertEvent{}, false
}

// sloKey orders (slo, tenant) states deterministically.
type sloKey struct {
	slo    string
	tenant string
}

func sortedSLOKeys(m map[sloKey]*sloState) []sloKey {
	keys := make([]sloKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].slo != keys[j].slo {
			return keys[i].slo < keys[j].slo
		}
		return keys[i].tenant < keys[j].tenant
	})
	return keys
}
