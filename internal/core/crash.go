package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Crash domains: the testbed-topology side of client crash-recovery.
// The faults package schedules *when* a client crashes and restarts;
// this file resolves *what* dies — which processes, caches and queues —
// for each of the three crash kinds, and accounts the blast radius:
//
//   - danaus-crash: one tenant's libservice process. Its user-level
//     clients die (dirty cache lost, MDS sessions stale), its queued
//     admission waiters are shed, every other tenant is untouched.
//   - fuse-crash: a tenant's FUSE daemons die together with the clients
//     they host — every container mounted through those daemons fails.
//   - host-crash: the kernel client goes down with the node, so every
//     pool — kernel Ceph mounts, user-level clients, FUSE daemons — is
//     interrupted at once. This is the paper's containment contrast:
//     a libservice failure is one tenant's problem, a kernel-client
//     failure is everyone's.
//
// Restart schedules an asynchronous recovery process that reclaims MDS
// sessions (fencing the dead incarnations), restarts flushers and
// daemons, and stamps the recovery time into the crash log.

// CrashEvent is one crash and its recovery, as observed by the testbed.
type CrashEvent struct {
	Kind   faults.Kind
	Tenant string
	// At is when the crash hit; RecoveredAt when the recovery protocol
	// finished (zero until then).
	At          time.Duration
	RecoveredAt time.Duration
	Recovered   bool
	// Affected lists the pools whose filesystem service was interrupted
	// (the blast radius).
	Affected []string
	// QueueShed counts admission waiters evicted at crash time.
	QueueShed int
}

// RecoveryTime returns how long the domain was down, or zero while
// recovery is still pending.
func (ev CrashEvent) RecoveryTime() time.Duration {
	if !ev.Recovered {
		return 0
	}
	return ev.RecoveredAt - ev.At
}

// CrashLog returns a snapshot of every crash the testbed has taken, in
// occurrence order.
func (tb *Testbed) CrashLog() []CrashEvent {
	out := make([]CrashEvent, len(tb.crashLog))
	for i, ev := range tb.crashLog {
		out[i] = *ev
	}
	return out
}

func (tb *Testbed) poolByName(name string) *Pool {
	for _, p := range tb.pools {
		if p.Name == name {
			return p
		}
	}
	return nil
}

// CrashTarget implements faults.CrashTargets over the testbed topology:
// danaus-crash and fuse-crash resolve the named tenant's pool,
// host-crash spans every pool (resolved lazily at crash time so pools
// created after the fault plan is installed are still included).
func (tb *Testbed) CrashTarget(kind faults.Kind, tenant string) (faults.CrashTarget, error) {
	switch kind {
	case faults.DanausCrash, faults.FUSECrash:
		p := tb.poolByName(tenant)
		if p == nil {
			return nil, fmt.Errorf("core: crash target pool %q not found", tenant)
		}
		return &crashDomain{tb: tb, kind: kind, tenant: tenant, pools: []*Pool{p}}, nil
	case faults.HostCrash:
		return &crashDomain{tb: tb, kind: kind, tenant: "host", host: true}, nil
	default:
		return nil, fmt.Errorf("core: %v is not a client-crash kind", kind)
	}
}

// InstallFaults installs a faults.Parse schedule with window times
// relative to offset, the testbed resolving its crash targets. Every
// "@wal" token is first replaced by the OSD index holding the first
// object of walIno, so an OSD fault always lands on data the victim
// owns. It returns the installed plan; an empty schedule installs
// nothing, and a bad entry fails with an error naming it.
func (tb *Testbed) InstallFaults(schedule string, walIno uint64, offset time.Duration) (faults.Plan, error) {
	schedule = strings.ReplaceAll(schedule, "@wal", strconv.Itoa(tb.Cluster.PlacementOf(walIno, 0)))
	plan, err := faults.Parse(schedule)
	if err != nil {
		return faults.Plan{}, err
	}
	if _, err := faults.Install(tb.Eng, tb.Cluster, tb, plan, offset); err != nil {
		return faults.Plan{}, err
	}
	return plan, nil
}

// crashDomain is one scheduled crash window's resolved blast radius.
type crashDomain struct {
	tb     *Testbed
	kind   faults.Kind
	tenant string
	pools  []*Pool
	host   bool
	event  *CrashEvent
}

func (d *crashDomain) targets() []*Pool {
	if d.host {
		return d.tb.pools
	}
	return d.pools
}

// Crash kills the domain's processes. It runs from the fault schedule
// (no process context): state is discarded and waiters are woken, but
// no simulated work is performed — dying is free, only recovery costs.
func (d *crashDomain) Crash() {
	ev := &CrashEvent{Kind: d.kind, Tenant: d.tenant, At: d.tb.Eng.Now()}
	for _, p := range d.targets() {
		ev.Affected = append(ev.Affected, p.Name)
		// The user-level clients die under every crash kind that can
		// reach them: the libservice process for danaus-crash, the
		// daemon hosting libcephfs for fuse-crash, the node itself for
		// host-crash. Un-synced dirty state is discarded; data the
		// backend acknowledged (fsync) survives in the cluster.
		for _, c := range p.clients {
			c.Crash()
		}
		if d.kind != faults.DanausCrash {
			for _, t := range p.fuseDaemons {
				t.Crash()
			}
		}
		if d.host {
			for _, m := range p.kernMounts {
				m.Crash()
			}
		}
		// Parked admission waiters are shed with the same deterministic
		// error in-flight operations see — a crashed service cannot hold
		// queue slots hostage.
		if p.Admission != nil {
			ev.QueueShed += p.Admission.ShedQueued(vfsapi.ErrCrashed)
		}
		d.tb.Obs.Mark(p.Name, "crash:"+d.kind.String())
	}
	d.event = ev
	d.tb.crashLog = append(d.tb.crashLog, ev)
}

// Restart spawns the recovery process: session reclaim (with fencing)
// for every dead client, cold remounts, daemon restarts. The recovery
// runs in simulated time on a thread of the crashed domain, so recovery
// cost lands on the right tenant and the crash log's RecoveryTime
// reflects the protocol, not just the scheduled restart instant.
func (d *crashDomain) Restart() {
	if d.tb.stopped {
		return
	}
	ev := d.event
	pools := d.targets()
	acct, mask := d.tb.Kernel.Account(), d.tb.CPU.AllMask()
	if !d.host && len(pools) == 1 {
		acct, mask = pools[0].Acct, pools[0].Mask
	}
	d.tb.Eng.Go("crash-recovery", func(p *sim.Proc) {
		th := d.tb.CPU.NewThread(acct, mask)
		ctx := vfsapi.Ctx{P: p, T: th}
		for _, pool := range pools {
			for _, t := range pool.fuseDaemons {
				t.Restart()
			}
			for _, c := range pool.clients {
				_ = c.Restart(ctx)
			}
			for _, m := range pool.kernMounts {
				_ = m.Restart(ctx)
			}
			d.tb.Obs.Mark(pool.Name, "recover:"+d.kind.String())
		}
		if ev != nil {
			ev.RecoveredAt = d.tb.Eng.Now()
			ev.Recovered = true
		}
	})
}
