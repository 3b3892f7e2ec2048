package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// OverloadCase is one point of the overload-sweep family: a client
// configuration, with or without the overload-protection policy,
// driven by an open-loop aggressor at a multiple of the base offered
// load while a closed-loop victim measures tail latency.
type OverloadCase struct {
	Label      string
	Config     core.Configuration
	Protected  bool // admission control + breaker + brownout enabled
	Multiplier int  // offered load = Multiplier x base rate; 0 = unloaded
}

// OverloadRow is the outcome of one overload case.
type OverloadRow struct {
	OverloadCase

	// OfferedRate is the aggressor's configured arrival rate (req/s).
	OfferedRate float64
	// Open-loop aggressor accounting over the whole run.
	Offered   uint64
	Completed uint64
	Shed      uint64
	Failed    uint64
	// ShedRate is Shed/Offered.
	ShedRate float64

	// Victim tail latency inside the measurement window, and its ratio
	// to the same configuration's unloaded (Multiplier 0) value.
	VictimP99      time.Duration
	VictimP99Ratio float64
	VictimMBps     float64

	// Admission is the aggressor pool's admission snapshot after the
	// run drained (zero when unprotected); QueueCap its configured
	// bound — the bounded-queue invariant is Admission.MaxQueued <=
	// QueueCap.
	Admission vfsapi.AdmissionStats
	QueueCap  int

	// BreakerOpens and BrownoutFlips count degraded-mode activity.
	BreakerOpens  uint64
	BrownoutFlips uint64
}

// overloadBaseRate is the base (1x) offered load in requests per
// second. It is chosen so 1x approaches the backend's service capacity
// for cold 256 KiB reads and 4x is firmly past it.
const overloadBaseRate = 1500.0

// overloadOpSize is the aggressor's per-request read size.
const overloadOpSize = 256 << 10

// OverloadCases returns the sweep: the protected Danaus client versus
// the unprotected kernel client at 0x (unloaded baseline), 1x, 2x and
// 4x offered load.
func OverloadCases() []OverloadCase {
	var cases []OverloadCase
	for _, mult := range []int{0, 1, 2, 4} {
		cases = append(cases, OverloadCase{
			Label: "D+adm", Config: core.ConfigD, Protected: true, Multiplier: mult,
		})
	}
	for _, mult := range []int{0, 1, 2, 4} {
		cases = append(cases, OverloadCase{
			Label: "K", Config: core.ConfigK, Protected: false, Multiplier: mult,
		})
	}
	return cases
}

// RunOverloadSweep executes every case and fills VictimP99Ratio
// against each configuration's own unloaded baseline.
func RunOverloadSweep(run Run) []OverloadRow {
	cases := OverloadCases()
	rows := make([]OverloadRow, 0, len(cases))
	baseline := map[string]time.Duration{}
	for _, c := range cases {
		row := RunOverloadCase(c, run)
		if c.Multiplier == 0 {
			baseline[c.Label] = row.VictimP99
		}
		if base := baseline[c.Label]; base > 0 {
			row.VictimP99Ratio = float64(row.VictimP99) / float64(base)
		}
		rows = append(rows, row)
	}
	return rows
}

// RunOverloadCase runs one overload point: victim pool 0 issues
// closed-loop cold reads (the tail-latency probe), aggressor pool 1 is
// driven by the open-loop Poisson generator at the case's offered
// load. Both pools mount the case's configuration; the protection
// policy applies testbed-wide when the case is protected.
func RunOverloadCase(c OverloadCase, run Run) OverloadRow {
	r := newRig(4, run.Params(), c.Protected, run.Attach)
	row := OverloadRow{OverloadCase: c, OfferedRate: overloadBaseRate * float64(c.Multiplier)}
	victim, agg := r.containment(c.Config, run.Scale)

	// Both datasets overflow their pool's cache so reads keep hitting
	// the shared backend — the resource the aggressor overloads.
	coldSize := run.ColdSize()
	vic := &workloads.SeqReader{
		Name: "victim-reader", FS: victim.Mount.Default, Path: "/cold",
		Size: coldSize, Chunk: 128 << 10, NewThread: victim.NewThread,
		Stats: workloads.NewStats(),
	}

	r.runMaster(func(p *sim.Proc) {
		prepCold := func(cont *core.Container) func(pp *sim.Proc) {
			return func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: cont.NewThread()}
				workloads.WriteFile(ctx, cont.Mount.Default, "/cold", coldSize, 1<<20, false)
			}
		}
		prepare(p, r.tb.Eng, prepCold(victim), prepCold(agg))

		clock := run.Clock(r.tb.Eng)
		g := workloads.NewGroup(r.tb.Eng)
		vic.Run(g, clock)

		var ol *workloads.OpenLoop
		if c.Multiplier > 0 {
			ol = aggressor(agg, run.Scale, row.OfferedRate)
			ol.Run(g, clock)
		}
		g.Wait(p)

		window := clock.Window()
		row.VictimP99 = vic.Stats.Latency.Quantile(0.99)
		row.VictimMBps = vic.Stats.ThroughputMBps(window)
		if ol != nil {
			row.Offered = ol.Offered
			row.Completed = ol.Completed
			row.Shed = ol.Shed
			row.Failed = ol.Failed
			if ol.Offered > 0 {
				row.ShedRate = float64(ol.Shed) / float64(ol.Offered)
			}
		}
		if a := agg.Pool.Admission; a != nil {
			row.Admission = a.Stats()
			row.QueueCap = a.QueueCap()
		}
		for _, cl := range []*core.Container{victim, agg} {
			if cl.Mount.Client != nil {
				row.BreakerOpens += cl.Mount.Client.BreakerStats().Opens
			}
		}
		row.BrownoutFlips = r.tb.Kernel.BrownoutFlips()
	})
	return row
}

// aggressor is the open-loop load of the overload and monitor sweeps:
// Poisson arrivals at rate (req/s), each reading overloadOpSize bytes
// of the aggressor pool's cold file.
func aggressor(agg *core.Container, scale Scale, rate float64) *workloads.OpenLoop {
	return &workloads.OpenLoop{
		FS: agg.Mount.Default, Path: "/cold", FileSize: scale.ColdSize(),
		OpSize: overloadOpSize, Rate: rate, Seed: 42, NewThread: agg.NewThread,
	}
}

// Violations checks the overload invariants on the row: the admission
// queue never exceeded its configured cap, and every offered operation
// is accounted admitted, shed, or still in flight.
func (r OverloadRow) Violations() []string {
	var v []string
	if err := r.Admission.CheckBound(r.QueueCap); err != nil {
		v = append(v, fmt.Sprintf("overloadsweep %s %dx: bounded-queue violated: %v", r.Label, r.Multiplier, err))
	}
	if err := r.Admission.CheckLedger(); err != nil {
		v = append(v, fmt.Sprintf("overloadsweep %s %dx: admission accounting violated: %v", r.Label, r.Multiplier, err))
	}
	return v
}

// String renders a row for the harness.
func (r OverloadRow) String() string {
	prot := "off"
	if r.Protected {
		prot = "on"
	}
	return fmt.Sprintf("%-5s %-4s prot=%-3s load=%dx (%5.0f req/s) victim p99 %-12v x%-5.2f %6.1f MB/s  offered=%-6d done=%-6d shed=%-6d (%4.1f%%) maxq=%-3d opens=%-3d brownouts=%d",
		r.Label, r.Config, prot, r.Multiplier, r.OfferedRate,
		r.VictimP99, r.VictimP99Ratio, r.VictimMBps,
		r.Offered, r.Completed, r.Shed, 100*r.ShedRate,
		r.Admission.MaxQueued, r.BreakerOpens, r.BrownoutFlips)
}
