package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// FaultSweepCase is one point of the fault-sweep family: a client
// configuration and replication level driven through a deterministic
// fault schedule while a victim and a bystander tenant run side by
// side.
type FaultSweepCase struct {
	Label       string
	Config      core.Configuration
	Replication int
	// Schedule is a faults.Parse schedule with times relative to the
	// start of the measurement window. The token "@wal" is replaced by
	// the OSD index holding the victim WAL's first object, so the crash
	// always lands on data the victim owns.
	Schedule string
}

// FaultSweepRow is the outcome of one fault-sweep case.
type FaultSweepRow struct {
	FaultSweepCase

	// Victim probes: a fsync-per-append WAL writer and a cold
	// sequential reader forced to the backend by cache pressure.
	VictimWriteMBps float64
	VictimReadMBps  float64
	// BystanderMBps is the cache-resident reader in the second pool,
	// measuring collateral damage of the victim's faults.
	BystanderMBps float64
	VictimOps     uint64
	VictimErrors  uint64

	// RecoveryTime is the time from the first fault arming until the
	// first victim operation that completed *through* the fault path
	// (its success coincided with a retry or failover), i.e. how long
	// until the client demonstrably worked around the fault. Zero when
	// no fault was scheduled or no operation needed the fault path.
	RecoveryTime time.Duration

	// Fault-handling counters summed over the victim's client.
	Faults metrics.FaultCounters

	// DataLossBytes is acknowledged-but-unrecoverable WAL bytes:
	// fsync-acked size minus what the cluster can reconstruct from live
	// objects and backfill logs. Must be zero at replication >= 2.
	DataLossBytes int64
}

// frac is fraction f of the scale's measurement window.
func frac(scale Scale, f float64) time.Duration {
	return time.Duration(float64(scale.Duration) * f)
}

// span renders the [a, b] fractions of the measurement window as a
// fault-schedule window "start-end". Duration.String round-trips
// through faults.Parse exactly.
func span(scale Scale, a, b float64) string {
	return fmt.Sprintf("%v-%v", frac(scale, a), frac(scale, b))
}

// FaultSweepCases returns the harness sweep: a no-fault baseline, the
// combined crash+spike+stall schedule against the user-level and the
// kernel client at replication 2, and an unreplicated long crash that
// exercises the bounded-retry error path.
func FaultSweepCases(scale Scale) []FaultSweepCase {
	combined := fmt.Sprintf("osd-crash:@wal:%s;net-spike:client:500us:%s;mds-stall:%s",
		span(scale, 0.25, 0.6), span(scale, 0.4, 0.7), span(scale, 0.5, 0.55))
	long := fmt.Sprintf("osd-crash:@wal:%s", span(scale, 0.25, 0.85))
	return []FaultSweepCase{
		{Label: "baseline", Config: core.ConfigD, Replication: 2, Schedule: ""},
		{Label: "crash+spike+stall", Config: core.ConfigD, Replication: 2, Schedule: combined},
		{Label: "crash+spike+stall", Config: core.ConfigK, Replication: 2, Schedule: combined},
		{Label: "long-crash", Config: core.ConfigD, Replication: 1, Schedule: long},
	}
}

// RunFaultSweep executes one fault-sweep case: victim pool 0 runs the
// WAL writer and the cold reader, bystander pool 1 a cached reader,
// and the schedule is installed relative to the measurement window.
func RunFaultSweep(c FaultSweepCase, run Run) FaultSweepRow {
	r := newRig(4, run.Params(), false, run.Attach)
	r.tb.Cluster.SetReplication(c.Replication)
	row := FaultSweepRow{FaultSweepCase: c}
	victim, byst := r.containment(c.Config, run.Scale)

	// The cold file overflows the victim's cache so reads keep hitting
	// the backend; the bystander file fits comfortably.
	coldSize := run.ColdSize()
	const warmSize = 16 << 20

	wal := &workloads.WALWriter{
		FS: victim.Mount.Default, Path: "/wal",
		NewThread: victim.NewThread,
	}
	reader := &workloads.SeqReader{
		Name: "cold-reader", FS: victim.Mount.Default, Path: "/cold",
		Size: coldSize, Chunk: 256 << 10, NewThread: victim.NewThread,
		Stats: workloads.NewStats(),
	}
	warm := &workloads.SeqReader{
		Name: "bystander", FS: byst.Mount.Default, Path: "/warm",
		Size: warmSize, Chunk: 128 << 10, NewThread: byst.NewThread,
		Stats: workloads.NewStats(),
	}

	r.runMaster(func(p *sim.Proc) {
		prepare(p, r.tb.Eng,
			func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: victim.NewThread()}
				wal.Create(ctx)
				workloads.WriteFile(ctx, victim.Mount.Default, "/cold", coldSize, 1<<20, false)
			},
			func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: byst.NewThread()}
				workloads.WriteFile(ctx, byst.Mount.Default, "/warm", warmSize, 0, false)
			},
		)

		clock := run.Clock(r.tb.Eng)

		walNode, err := r.tb.Cluster.Tree().Lookup("/containers/fls0/wal")
		if err != nil {
			panic(err)
		}
		walIno := walNode.Ino
		plan, err := r.tb.InstallFaults(c.Schedule, walIno, clock.From)
		if err != nil {
			panic(err)
		}
		var faultAbs time.Duration
		if !plan.Empty() {
			faultAbs = clock.From + plan.Windows[0].Start
		}

		// survival watches one victim op: it records the first op whose
		// success coincided with retry/failover activity after the fault
		// armed.
		var firstSurvived time.Duration
		survival := func() func(time.Duration) {
			before := victim.Pool.FaultStats()
			return func(t time.Duration) {
				if faultAbs == 0 || t < faultAbs || firstSurvived != 0 {
					return
				}
				after := victim.Pool.FaultStats()
				if after.Retries > before.Retries || after.Failovers > before.Failovers {
					firstSurvived = t
				}
			}
		}
		wal.Watch, reader.Watch = survival, survival

		g := workloads.NewGroup(r.tb.Eng)
		wal.Run(g, clock)
		reader.Run(g, clock)
		warm.Run(g, clock)
		g.Wait(p)

		window := clock.Window()
		row.VictimWriteMBps = wal.Stats.ThroughputMBps(window)
		row.VictimReadMBps = reader.Stats.ThroughputMBps(window)
		row.BystanderMBps = warm.Stats.ThroughputMBps(window)
		row.VictimOps = wal.Stats.Ops.Ops + reader.Stats.Ops.Ops
		row.VictimErrors = wal.Stats.Errors + reader.Stats.Errors
		if firstSurvived > 0 {
			row.RecoveryTime = firstSurvived - faultAbs
		}
		row.Faults = victim.Pool.FaultStats()
		row.DataLossBytes = workloads.AckedLoss(wal.Acked, r.tb.Cluster.StoredSize(walIno))
	})
	return row
}

// Violations checks the standing faultsweep invariant: no acknowledged
// data may be lost while the cluster holds a surviving replica.
func (r FaultSweepRow) Violations() []string {
	if r.Replication >= 2 && r.DataLossBytes > 0 {
		return []string{fmt.Sprintf("faultsweep %s %s r=%d: zero-data-loss violated: %d acked bytes unrecoverable",
			r.Config, r.Label, r.Replication, r.DataLossBytes)}
	}
	return nil
}

// String renders a row for the harness.
func (r FaultSweepRow) String() string {
	return fmt.Sprintf("%-4s r=%d %-17s wal %6.1f MB/s read %6.1f MB/s byst %6.1f MB/s  ops=%-5d err=%-3d recover=%-10v retries=%-4d failovers=%-4d misses=%-3d degraded=%-10v loss=%d",
		r.Config, r.Replication, r.Label,
		r.VictimWriteMBps, r.VictimReadMBps, r.BystanderMBps,
		r.VictimOps, r.VictimErrors, r.RecoveryTime,
		r.Faults.Retries, r.Faults.Failovers, r.Faults.DeadlineMisses,
		r.Faults.TimeDegraded, r.DataLossBytes)
}
