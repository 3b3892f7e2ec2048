package experiments

import (
	"fmt"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// BlameSweepCase selects one scenario of the blame sweep: Fileserver
// instances of one client configuration, optionally next to the
// RandomIO lock-stress neighbour — the Fig 1 interference narrative
// the blame engine exists to explain.
type BlameSweepCase struct {
	Config   core.Configuration // ConfigK or ConfigD
	FLSCount int
	Neighbor bool // colocate the RND neighbour on its reserved cores
}

// Label renders the case in the paper's workload notation.
func (c BlameSweepCase) Label() string {
	s := fmt.Sprintf("%dFLS/%s", c.FLSCount, c.Config)
	if c.Neighbor {
		s += "+1RND"
	}
	return s
}

// BlameSweepCases returns the swept scenarios: the kernel client alone,
// the kernel client with the lock-stress neighbour (where flusher core
// theft and i_mutex/lru_lock interference appear), and Danaus under
// the same pressure for contrast.
func BlameSweepCases() []BlameSweepCase {
	return []BlameSweepCase{
		{Config: core.ConfigK, FLSCount: 2},
		{Config: core.ConfigK, FLSCount: 2, Neighbor: true},
		{Config: core.ConfigD, FLSCount: 2, Neighbor: true},
	}
}

// RunBlameSweep executes one blame-sweep case with its own recorder
// (independent of the danausbench -trace hook) and returns the blame
// analysis of the full run plus the recording itself, for artifact
// export and leak/determinism checks. A non-nil WhatIf re-runs the
// scenario under the modified cost model: parameter knobs rewrite the
// testbed's Params before construction, and flusher pinning confines
// the kernel writeback threads to the Fileserver pools' own cores so
// they cannot steal the neighbour's reservation.
func RunBlameSweep(c BlameSweepCase, scale Scale, w *blame.WhatIf) (blame.Report, *obs.Recorder) {
	cores := 2 * (c.FLSCount + 1)
	params := scale.Params()
	if w != nil {
		w.Apply(params)
	}
	tb := core.NewTestbed(core.TestbedConfig{Cores: cores, Params: params})
	// SampleInterval stays zero: the recorder adds no engine events, so
	// the schedule is event-for-event the unobserved one.
	rec := obs.New(obs.Config{Clock: tb.Eng.Now})
	tb.AttachObserver(rec)
	if w != nil && w.FlusherPinned {
		tb.Kernel.SetFlusherMask(cpu.MaskRange(0, 2*c.FLSCount))
	}
	r := &rig{tb: tb}

	label := c.Label()
	if w != nil && w.Spec != "" {
		label += " [" + w.Spec + "]"
	}

	neighbor := ""
	if c.Neighbor {
		neighbor = "RND"
	}
	f := newFleet(r, c.Config, c.FLSCount, neighbor, scale)
	r.runMaster(func(p *sim.Proc) {
		prepare(p, r.tb.Eng, f.preps()...)
		f.run(p, r.tb.Eng, clockFor(r.tb.Eng, scale))
	})

	return blame.Analyze(label, rec), rec
}
