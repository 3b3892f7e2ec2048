package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// CrashSweepCase is one point of the crash-sweep family: a client
// architecture whose client-side component is killed mid-measurement
// and restarted, while a victim and a bystander tenant run side by
// side. The sweep is the paper's containment argument as an
// experiment: a Danaus libservice crash is one tenant's problem, a
// FUSE daemon crash takes its tenant's whole mount, a kernel-client
// crash takes the host.
type CrashSweepCase struct {
	Label       string
	Config      core.Configuration
	Replication int
	// Kind selects which component dies (DanausCrash, FUSECrash or
	// HostCrash); the victim pool is always the target for the
	// tenant-scoped kinds.
	Kind faults.Kind
}

// CrashSweepRow is the outcome of one crash-sweep case.
type CrashSweepRow struct {
	CrashSweepCase

	// Victim probes: a fsync-per-append WAL writer plus a sequential
	// reader in the crashed pool.
	VictimWriteMBps float64
	VictimErrors    uint64
	// Bystander: a cache-resident reader in the second pool. Its error
	// count is the blast-radius proof — zero for the tenant-scoped
	// crash kinds, non-zero when the whole host goes down.
	BystanderMBps   float64
	BystanderErrors uint64

	// AffectedTenants is the blast radius recorded by the crash domain
	// (pools whose service was interrupted).
	AffectedTenants int
	// QueueShed counts admission waiters evicted at crash time.
	QueueShed int

	// RecoveryTime is the recovery protocol's duration: scheduled
	// restart until MDS sessions are reclaimed and mounts are back.
	RecoveryTime time.Duration
	// VictimRepair is end-to-end repair as the victim saw it: crash
	// instant until its first operation completed again.
	VictimRepair time.Duration

	// DurabilityViolation is acked-but-lost WAL bytes observed through
	// a fresh post-recovery handle: fsync-acknowledged size minus the
	// remounted file size, when positive. The contract is zero — a
	// crash may discard un-synced appends, never acknowledged ones.
	DurabilityViolation int64
}

// CrashSweepCases returns the harness sweep: for each of the three
// architectures, its native crash kind at replication 2, with the
// outage spanning 30-50% of the measurement window.
func CrashSweepCases() []CrashSweepCase {
	return []CrashSweepCase{
		{Label: "danaus-crash", Config: core.ConfigD, Replication: 2, Kind: faults.DanausCrash},
		{Label: "fuse-crash", Config: core.ConfigF, Replication: 2, Kind: faults.FUSECrash},
		{Label: "host-crash", Config: core.ConfigK, Replication: 2, Kind: faults.HostCrash},
	}
}

// crashSchedule is the fault schedule of one outage of kind over the
// [a, b] fractions of the measurement window; tenant-scoped kinds crash
// the victim pool.
func crashSchedule(k faults.Kind, scale Scale, a, b float64) string {
	if k == faults.HostCrash {
		return fmt.Sprintf("%v:%s", k, span(scale, a, b))
	}
	return fmt.Sprintf("%v:fls0:%s", k, span(scale, a, b))
}

// RunCrashSweep executes one crash-sweep case: victim pool 0 runs a
// WAL writer and reopens its handle after the crash invalidates it,
// bystander pool 1 reads a warm file, and the crash window is
// installed relative to the measurement window.
func RunCrashSweep(c CrashSweepCase, run Run) CrashSweepRow {
	r := newRig(4, run.Params(), false, run.Attach)
	r.tb.Cluster.SetReplication(c.Replication)
	row := CrashSweepRow{CrashSweepCase: c}
	victim, byst := r.containment(c.Config, run.Scale)

	const warmSize = 16 << 20
	wal := &workloads.WALWriter{
		FS: victim.Mount.Default, Path: "/wal",
		NewThread: victim.NewThread, Reopen: true,
	}
	warm := &workloads.SeqReader{
		Name: "bystander", FS: byst.Mount.Default, Path: "/warm",
		Size: warmSize, Chunk: 128 << 10, NewThread: byst.NewThread,
		Reopen: true, Stats: workloads.NewStats(),
	}

	r.runMaster(func(p *sim.Proc) {
		prepare(p, r.tb.Eng,
			func(pp *sim.Proc) { wal.Create(vfsapi.Ctx{P: pp, T: victim.NewThread()}) },
			func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: byst.NewThread()}
				workloads.WriteFile(ctx, byst.Mount.Default, "/warm", warmSize, 0, false)
			},
		)

		clock := run.Clock(r.tb.Eng)
		plan, err := r.tb.InstallFaults(crashSchedule(c.Kind, run.Scale, 0.3, 0.5), 0, clock.From)
		if err != nil {
			panic(err)
		}
		crashAbs := clock.From + plan.Windows[0].Start
		noteRepair := func(t time.Duration) {
			if row.VictimRepair == 0 && t >= crashAbs {
				row.VictimRepair = t - crashAbs
			}
		}
		wal.Watch = func() func(time.Duration) { return noteRepair }

		g := workloads.NewGroup(r.tb.Eng)
		wal.Run(g, clock)
		warm.Run(g, clock)
		g.Wait(p)

		// Durability audit through a fresh post-recovery handle: the
		// remounted WAL must cover every fsync-acknowledged byte.
		remount := wal.Remount(vfsapi.Ctx{P: p, T: victim.NewThread()})
		row.DurabilityViolation = workloads.AckedLoss(wal.Acked, remount)

		window := clock.Window()
		row.VictimWriteMBps = wal.Stats.ThroughputMBps(window)
		row.VictimErrors = wal.Stats.Errors
		row.BystanderMBps = warm.Stats.ThroughputMBps(window)
		row.BystanderErrors = warm.Stats.Errors
		for _, ev := range r.tb.CrashLog() {
			row.AffectedTenants += len(ev.Affected)
			row.QueueShed += ev.QueueShed
			if ev.Recovered {
				row.RecoveryTime += ev.RecoveryTime()
			}
		}
	})
	return row
}

// Violations checks the crash-sweep invariants on the row:
// the durability contract (no fsync-acknowledged byte lost), recovery
// completion (the scheduled restart brought the service back), and the
// paper's blast-radius claim — a Danaus libservice or FUSE daemon
// crash is one tenant's problem while a kernel-client crash interrupts
// every pool on the host. It returns human-readable violation
// descriptions (empty = clean).
func (r CrashSweepRow) Violations() []string {
	var v []string
	if r.DurabilityViolation > 0 {
		v = append(v, fmt.Sprintf("crashsweep %s %s: durability violated: %d fsync-acked bytes missing after remount",
			r.Config, r.Label, r.DurabilityViolation))
	}
	if r.RecoveryTime <= 0 {
		v = append(v, fmt.Sprintf("crashsweep %s %s: recovery never completed", r.Config, r.Label))
	}
	if r.VictimErrors == 0 {
		v = append(v, fmt.Sprintf("crashsweep %s %s: crash window had no effect: victim saw zero errors", r.Config, r.Label))
	}
	switch r.Kind {
	case faults.DanausCrash, faults.FUSECrash:
		if r.AffectedTenants != 1 {
			v = append(v, fmt.Sprintf("crashsweep %s %s: blast radius violated: %d tenants affected, want 1",
				r.Config, r.Label, r.AffectedTenants))
		}
		if r.BystanderErrors != 0 {
			v = append(v, fmt.Sprintf("crashsweep %s %s: containment violated: bystander saw %d errors",
				r.Config, r.Label, r.BystanderErrors))
		}
	case faults.HostCrash:
		if r.AffectedTenants != 2 {
			v = append(v, fmt.Sprintf("crashsweep %s %s: blast radius violated: %d tenants affected, want 2 (whole host)",
				r.Config, r.Label, r.AffectedTenants))
		}
		if r.BystanderErrors == 0 {
			v = append(v, fmt.Sprintf("crashsweep %s %s: host crash did not interrupt the bystander", r.Config, r.Label))
		}
	}
	return v
}

// String renders a row for the harness.
func (r CrashSweepRow) String() string {
	return fmt.Sprintf("%-4s r=%d %-13s wal %6.1f MB/s err=%-4d byst %6.1f MB/s err=%-4d affected=%d shed=%-3d recover=%-10v repair=%-10v loss=%d",
		r.Config, r.Replication, r.Label,
		r.VictimWriteMBps, r.VictimErrors,
		r.BystanderMBps, r.BystanderErrors,
		r.AffectedTenants, r.QueueShed,
		r.RecoveryTime, r.VictimRepair, r.DurabilityViolation)
}
