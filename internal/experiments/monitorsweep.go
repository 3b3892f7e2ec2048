package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// MonitorCase is one point of the monitor-sweep family: a client
// configuration running a victim tenant with a live telemetry monitor
// and SLO burn-rate alerting attached, disturbed mid-measurement by
// either an open-loop overload burst or a client crash. The sweep is
// the alerting story of the isolation argument: on the
// admission-protected Danaus client the victim's alert fires during
// the disturbance and clears once it passes, while the unprotected
// kernel client accumulates an open-loop backlog that keeps the victim
// in violation long after the burst stops.
type MonitorCase struct {
	Label     string
	Config    core.Configuration
	Protected bool
	// Fault selects the disturbance: "overload" (aggressor burst in
	// pool 1) or "crash" (client crash in the victim pool, host crash
	// for the kernel client).
	Fault string
	Kind  faults.Kind // crash kind when Fault == "crash"
}

// MonitorRow is the outcome of one monitor case.
type MonitorRow struct {
	MonitorCase

	// SLOTarget is the calibrated latency target (overload cases): a
	// multiple of the same configuration's unloaded victim p99.
	SLOTarget time.Duration

	// Victim alert accounting for the monitored SLO.
	VictimFired   int
	VictimCleared int
	// VictimActiveEnd reports whether the victim alert was still firing
	// at the end of the measurement window — the sustained-violation
	// signal. It is judged at MeasureEnd, not at engine drain: once the
	// workload stops, a starved victim produces no more ops, its windows
	// go quiet, and the slow burn decays — a clear earned by silence, not
	// by recovery.
	VictimActiveEnd bool
	// MeasureEnd is the absolute virtual time the measurement window
	// closed; alert accounting above ignores ledger events after it.
	MeasureEnd time.Duration
	FirstFire  time.Duration // relative to measurement start (0 = never)
	LastClear  time.Duration
	// BystanderFired counts alerts on the other tenant — the alerting
	// view of blast radius.
	BystanderFired int

	Windows int // window rows emitted for all tenants

	// Monitor is the run's telemetry monitor, finalized; danausbench
	// exports its windows CSV and alert ledger.
	Monitor *telemetry.Monitor
	// Alerts is the full ledger (Monitor.Alerts, kept for convenience).
	Alerts []telemetry.AlertEvent
}

// Monitor sweep geometry, all relative to the measurement window so
// the sweep is scale-invariant: the fast window is 1/20 of the
// measurement (100ms at quick scale, 6s at paper scale), the slow
// confirmation window 5 fast windows, and the disturbance spans
// [20%, 45%] of the measurement so the post-disturbance tail is long
// enough for a recovered tenant's alert to clear.
const (
	monFastFrac    = 20
	monSlowFastN   = 5
	monFaultStart  = 0.20
	monFaultEnd    = 0.45
	monTargetScale = 1.25 // SLO target = monTargetScale x unloaded p99
	// monBurstMult sizes the burst so the unprotected client's open-loop
	// backlog outlives the post-burst measurement tail: the kernel
	// client drains roughly 45k ops/s, so 48x the base rate leaves it
	// saturated well past measurement end while the admission-protected
	// client sheds the excess and recovers within a few fast windows.
	monBurstMult = 48
)

// monVictimSLO is the name of the victim's monitored SLO.
const monVictimSLO = "victim-p99"

// MonitorCases returns the sweep: the protected Danaus client versus
// the unprotected kernel client, each under the overload burst and its
// native crash kind.
func MonitorCases() []MonitorCase {
	return []MonitorCase{
		{Label: "D+adm", Config: core.ConfigD, Protected: true, Fault: "overload"},
		{Label: "K", Config: core.ConfigK, Protected: false, Fault: "overload"},
		{Label: "D+adm", Config: core.ConfigD, Protected: true, Fault: "crash", Kind: faults.DanausCrash},
		{Label: "K", Config: core.ConfigK, Protected: false, Fault: "crash", Kind: faults.HostCrash},
	}
}

// monitorConfig derives the monitor windows from the scale.
func monitorConfig(scale Scale, slos []telemetry.SLO) telemetry.Config {
	fast := scale.Duration / monFastFrac
	if fast < time.Millisecond {
		fast = time.Millisecond
	}
	return telemetry.Config{
		FastWindow: fast,
		SlowWindow: monSlowFastN * fast,
		// The monitor ticker closes windows through event gaps (a
		// starved victim stops producing events exactly when the alert
		// must keep evaluating) and samples queue depth peaks.
		SampleInterval: fast / 4,
		SLOs:           slos,
	}
}

// calibrateVictim measures the victim's unloaded baseline for the
// configuration: the same testbed, pools, and reader, no disturbance,
// no monitor. It returns the p99 latency and the completions per fast
// window. The overload SLO is set from both, which is what a
// production burn-rate SLO would be: a latency target and a throughput
// floor derived from the service's own baseline.
func calibrateVictim(c MonitorCase, scale Scale) (time.Duration, uint64) {
	r := newRig(4, scale.Params(), c.Protected, nil)
	victim, _ := r.containment(c.Config, scale)
	stats := workloads.NewStats()
	runMonitorLoad(r, victim, monitorLoad{}, nil, scale, stats)
	return stats.Latency.Quantile(0.99), stats.Ops.Ops / monFastFrac
}

// monitorLoad is the disturbance of one monitored run: a crash schedule
// installed at measurement start with a bystander reading a warm file
// in the other pool, or an open-loop burst from the aggressor pool
// inside [monFaultStart, monFaultEnd] of the measurement window. The
// zero value is the undisturbed calibration run.
type monitorLoad struct {
	crash string // fault schedule
	byst  *core.Container
	agg   *core.Container
}

// runMonitorLoad drives one monitored run: the victim reads a cold
// dataset closed-loop for the whole measurement while ld disturbs it.
// SLO counting on mon is armed at measurement start so cache-cold
// warmup latencies stay out of the ledger. The victim's measured
// latencies land in vicStats; the return value is the absolute virtual
// time the measurement ended.
func runMonitorLoad(r *rig, victim *core.Container, ld monitorLoad, mon *telemetry.Monitor, scale Scale, vicStats *workloads.Stats) time.Duration {
	coldSize := scale.ColdSize()
	const readChunk = 128 << 10
	const warmSize = 16 << 20
	var measureEnd time.Duration
	prep := func(cont *core.Container, path string, size int64) func(pp *sim.Proc) {
		return func(pp *sim.Proc) {
			workloads.WriteFile(vfsapi.Ctx{P: pp, T: cont.NewThread()}, cont.Mount.Default, path, size, 1<<20, false)
		}
	}

	r.runMaster(func(p *sim.Proc) {
		preps := []func(pp *sim.Proc){prep(victim, "/cold", coldSize)}
		if ld.byst != nil {
			// Written through the same path as the cold file; at 16MB it
			// stays resident in the bystander's cache.
			preps = append(preps, prep(ld.byst, "/warm", warmSize))
		}
		if ld.agg != nil {
			preps = append(preps, prep(ld.agg, "/cold", coldSize))
		}
		prepare(p, r.tb.Eng, preps...)

		clock := scale.Clock(r.tb.Eng)
		measureEnd = clock.Stop
		mon.ArmSLOs(clock.From, clock.Stop)
		if ld.crash != "" {
			if _, err := r.tb.InstallFaults(ld.crash, 0, clock.From); err != nil {
				panic(err)
			}
		}

		g := workloads.NewGroup(r.tb.Eng)
		(&workloads.SeqReader{
			Name: "victim-reader", FS: victim.Mount.Default, Path: "/cold",
			Size: coldSize, Chunk: readChunk, NewThread: victim.NewThread,
			// A crash invalidates the handle; reopen once the client is
			// back. The burst run never crashes and never reopens.
			Reopen: ld.agg == nil, Stats: vicStats,
		}).Run(g, clock)
		if ld.byst != nil {
			(&workloads.SeqReader{
				Name: "bystander-reader", FS: ld.byst.Mount.Default, Path: "/warm",
				Size: warmSize, Chunk: readChunk, NewThread: ld.byst.NewThread, Reopen: true,
			}).Run(g, clock)
		}
		if ld.agg != nil {
			from := clock.From + frac(scale, monFaultStart)
			stop := clock.From + frac(scale, monFaultEnd)
			g.Go("burst-starter", func(pp *sim.Proc) {
				if wait := from - pp.Now(); wait > 0 {
					pp.Sleep(wait)
				}
				aggressor(ld.agg, scale, overloadBaseRate*monBurstMult).
					Run(g, workloads.Clock{Eng: r.tb.Eng, From: from, Stop: stop})
			})
		}
		g.Wait(p)
	})
	return measureEnd
}

// RunMonitorCase runs one monitored point. Overload cases first run an
// unloaded calibration pass to set the victim's latency SLO target,
// then the monitored run with the burst; crash cases monitor an
// error-rate SLO (a crash is an availability event, not a latency
// one). The case manages its own recorder and monitor — the sweep is
// about the monitor, so it is always attached regardless of the
// harness's -obs flags.
func RunMonitorCase(c MonitorCase, scale Scale) MonitorRow {
	row := MonitorRow{MonitorCase: c}

	var slos []telemetry.SLO
	if c.Fault == "overload" {
		base, opsPerWin := calibrateVictim(c, scale)
		if base <= 0 {
			base = time.Millisecond
		}
		row.SLOTarget = time.Duration(float64(base) * monTargetScale)
		slos = []telemetry.SLO{{
			Name: monVictimSLO, Tenant: "fls0", Op: "read",
			Target: row.SLOTarget,
			// MinOps 1 plus a throughput floor at half the calibrated
			// rate: a starved victim completes almost nothing, so the
			// shortfall itself must burn budget — gating on completion
			// volume alone would mute the worst case.
			Budget: 0.05, FireBurn: 1.5, ClearBurn: 1, MinOps: 1,
			ExpectedOps: opsPerWin / 2,
		}}
	} else {
		slos = []telemetry.SLO{{
			Name: monVictimSLO, Op: "read",
			Budget: 0.05, FireBurn: 4, ClearBurn: 1, MinOps: 1,
		}}
	}

	mon := telemetry.New(monitorConfig(scale, slos))
	// Mute SLO counting until the load function knows the measurement
	// interval and arms it: without this, preparation windows with no
	// reads would trip the throughput floor before the workload exists.
	mon.ArmSLOs(time.Duration(1<<62), 0)
	// The recorder and the monitor attach before the pools exist, so
	// every mount gets the traced facade that feeds the monitor.
	r := newRig(4, scale.Params(), c.Protected, func(tb *core.Testbed) {
		attachRecorder(tb)
		tb.AttachMonitor(mon)
	})
	victim, agg := r.containment(c.Config, scale)

	vicStats := workloads.NewStats()
	var ld monitorLoad
	switch c.Fault {
	case "overload":
		ld.agg = agg
	case "crash":
		ld.crash, ld.byst = crashSchedule(c.Kind, scale, monFaultStart, monFaultEnd), agg
	default:
		panic("monitorsweep: unknown fault " + c.Fault)
	}
	row.MeasureEnd = runMonitorLoad(r, victim, ld, mon, scale, vicStats)

	r.tb.Obs.Finalize()
	row.Monitor = mon
	row.Alerts = mon.Alerts()
	row.Windows = len(mon.Windows())
	summarizeAlerts(&row)
	return row
}

// summarizeAlerts folds the ledger into the row's victim/bystander
// accounting. Only events up to MeasureEnd count: after the workload
// stops, the engine drain closes empty victim windows whose silence
// decays the slow burn — a "clear" that reflects absence of traffic,
// not recovery. The full ledger (drain events included) stays on the
// row for export.
func summarizeAlerts(row *MonitorRow) {
	active := map[string]bool{}
	for _, e := range row.Alerts {
		if row.MeasureEnd > 0 && e.T > row.MeasureEnd {
			break
		}
		key := e.Tenant + "/" + e.SLO
		victim := e.Tenant == "fls0" && e.SLO == monVictimSLO
		switch e.State {
		case telemetry.AlertFiring:
			active[key] = true
			if victim {
				row.VictimFired++
				if row.FirstFire == 0 {
					row.FirstFire = e.T
				}
			} else {
				row.BystanderFired++
			}
		case telemetry.AlertClear:
			delete(active, key)
			if victim {
				row.VictimCleared++
				row.LastClear = e.T
			}
		}
	}
	row.VictimActiveEnd = active["fls0/"+monVictimSLO]
}

// Violations checks the alerting invariants on the row —
// the acceptance assertions of the sweep. Overload: the protected
// Danaus client must fire the victim's burn-rate alert during the
// burst AND clear it before the run ends, while the unprotected kernel
// client must fire and still be in violation at drain (the open-loop
// backlog outlives the burst). Crash: the victim's error alert must
// fire and clear on the tenant-scoped Danaus crash with the bystander
// untouched; the host crash must alert both tenants. Returns
// human-readable violations (empty = clean).
func (r MonitorRow) Violations() []string {
	var v []string
	tag := fmt.Sprintf("monitorsweep %s %s", r.Label, r.Fault)
	if r.VictimFired == 0 {
		v = append(v, tag+": victim alert never fired")
		return v
	}
	switch r.Fault {
	case "overload":
		if r.Protected {
			if r.VictimCleared == 0 {
				v = append(v, tag+": protected victim alert never cleared")
			}
			if r.VictimActiveEnd {
				v = append(v, tag+": protected victim alert still firing at drain")
			}
		} else {
			if !r.VictimActiveEnd {
				v = append(v, tag+": unprotected victim recovered — expected sustained violation")
			}
		}
	case "crash":
		if r.Protected {
			if r.VictimCleared == 0 {
				v = append(v, tag+": victim error alert never cleared after recovery")
			}
			if r.BystanderFired != 0 {
				v = append(v, fmt.Sprintf("%s: containment violated: %d bystander alerts", tag, r.BystanderFired))
			}
		} else {
			if r.BystanderFired == 0 {
				v = append(v, tag+": host crash raised no bystander alert")
			}
		}
	}
	return v
}

// String renders a row for the harness, followed by its alert ledger
// (drain events after MeasureEnd marked with *).
func (r MonitorRow) String() string {
	prot := "off"
	if r.Protected {
		prot = "on"
	}
	end := "clear"
	if r.VictimActiveEnd {
		end = "FIRING"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-4s prot=%-3s %-8s target=%-12v fired=%d cleared=%d end=%-6s first=%-12v lastclear=%-12v byst=%d windows=%d",
		r.Label, r.Config, prot, r.Fault, r.SLOTarget,
		r.VictimFired, r.VictimCleared, end, r.FirstFire, r.LastClear,
		r.BystanderFired, r.Windows)
	for _, e := range r.Alerts {
		mark := "  "
		if e.T > r.MeasureEnd {
			mark = " *"
		}
		b.WriteString("\n   " + mark + " " + e.String())
	}
	return b.String()
}
