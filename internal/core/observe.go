package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AttachObserver wires an observability recorder into the testbed:
// request spans open at every pool mount facade, the CPU scheduler and
// kernel report their activity, a virtual-time ticker samples per-pool
// core utilization and cache occupancy, and a finalizer harvests the
// end-of-run counters of every layer into the recorder's registry.
//
// Call it right after NewTestbed, before creating pools, so the pool
// mounts pick up the recorder. A nil recorder is a no-op.
func (tb *Testbed) AttachObserver(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	tb.Obs = rec
	tb.CPU.SetRecorder(rec)
	tb.Kernel.SetRecorder(rec)
	// Bridge the engine's passive wait observer to the recorder: each
	// completed wait is attributed to the span bound to the waiting
	// process. Observation reads only the clock — the engine schedule is
	// unchanged (the zero-overhead contract).
	tb.Eng.SetWaitObserver(func(p *sim.Proc, kind, resource, holder string, holderID int, start, dur time.Duration) {
		rec.Wait(p.ID(), kind, resource, holder, holderID, start, dur)
	})
	if iv := rec.SampleInterval(); iv > 0 {
		tb.startSampler(rec, iv)
	}
	rec.OnFinalize(func(reg *obs.Registry) { tb.harvest(reg) })
}

// startSampler runs a periodic virtual-time ticker that records core
// utilization (percent of one core, so a busy 2-core pool reads 200)
// and cache occupancy per pool, plus host-wide utilization. It stops
// rescheduling once the testbed is stopped so the engine can drain.
func (tb *Testbed) startSampler(rec *obs.Recorder, iv time.Duration) {
	prev := tb.CPU.UtilSnapshot()
	hostMask := cpu.MaskRange(0, tb.CPU.NumCores())
	var tick func()
	tick = func() {
		if tb.stopped {
			return
		}
		now := tb.Eng.Now()
		rec.Sample(obs.HostTenant, "core_util_pct", now,
			tb.CPU.Utilization(hostMask, prev, iv)*100)
		for _, p := range tb.pools {
			rec.Sample(p.Name, "core_util_pct", now,
				tb.CPU.Utilization(p.Mask, prev, iv)*100)
			rec.Sample(p.Name, "cache_bytes", now, float64(p.Memory.Current()))
		}
		prev = tb.CPU.UtilSnapshot()
		tb.Eng.After(iv, tick)
	}
	tb.Eng.After(iv, tick)
}

// lockAgg converts engine-level mutex statistics to the registry form.
func lockAgg(s sim.LockStats) obs.LockAgg {
	return obs.LockAgg{
		Count:     s.Acquisitions,
		Contended: s.Contended,
		Wait:      s.TotalWait,
		Hold:      s.TotalHold,
		MaxWait:   s.MaxWait,
	}
}

// merge accumulates harvested mutex stats onto a registry aggregate
// (a pool can own several clients sharing the lock name).
func merge(dst *obs.LockAgg, s obs.LockAgg) {
	dst.Count += s.Count
	dst.Contended += s.Contended
	dst.Wait += s.Wait
	dst.Hold += s.Hold
	if s.MaxWait > dst.MaxWait {
		dst.MaxWait = s.MaxWait
	}
}

// harvest dumps the end-of-run counters of every layer into the
// registry: kernel locks and accounting plus cluster/network totals
// under the host pseudo-tenant, and per-pool CPU accounting, cache
// occupancy, client cache/fault/lock stats, union copy-ups, and IPC
// transport counters under each pool's tenant.
func (tb *Testbed) harvest(reg *obs.Registry) {
	host := reg.Tenant(obs.HostTenant)
	for name, ls := range tb.Kernel.LockBreakdown() {
		*host.Lock(name) = lockAgg(ls)
	}
	ks := tb.Kernel.Account().Snapshot()
	host.SetCounter("kernel_cpu_ns", int64(ks.CPUTime))
	host.SetCounter("kernel_iowait_ns", int64(ks.IOWait))
	for core, busy := range tb.CPU.UtilSnapshot() {
		host.SetCounter(fmt.Sprintf("core%d_busy_ns", core), int64(busy))
	}

	var osdRead, osdWritten, osdOps uint64
	for _, o := range tb.Cluster.OSDs() {
		osdRead += o.BytesRead()
		osdWritten += o.BytesWritten()
		osdOps += o.Ops()
	}
	host.SetCounter("osd_bytes_read", int64(osdRead))
	host.SetCounter("osd_bytes_written", int64(osdWritten))
	host.SetCounter("osd_ops", int64(osdOps))
	host.SetCounter("brownout_flips", int64(tb.Kernel.BrownoutFlips()))
	if n := tb.Cluster.SessionsReclaimed(); n > 0 {
		host.SetCounter("mds_sessions_reclaimed", int64(n))
	}
	if n := len(tb.crashLog); n > 0 {
		host.SetCounter("crash_events", int64(n))
		var rec int64
		for _, ev := range tb.crashLog {
			if ev.Recovered {
				rec += int64(ev.RecoveryTime())
			}
		}
		host.SetCounter("crash_recovery_ns", rec)
	}
	host.SetCounter("mds_ops", int64(tb.Cluster.MDSOps()))
	host.SetCounter("mds_queue_delay_ns", int64(tb.Cluster.MDSQueueDelay()))
	if fab := tb.Cluster.Fabric(); fab != nil && fab.Client != nil {
		host.SetCounter("net_tx_bytes", int64(fab.Client.TX.Bytes()))
		host.SetCounter("net_tx_msgs", int64(fab.Client.TX.Messages()))
		host.SetCounter("net_rx_bytes", int64(fab.Client.RX.Bytes()))
		host.SetCounter("net_rx_msgs", int64(fab.Client.RX.Messages()))
	}

	for _, p := range tb.pools {
		t := reg.Tenant(p.Name)
		as := p.Acct.Snapshot()
		t.SetCounter("cpu_ns", int64(as.CPUTime))
		t.SetCounter("user_ns", int64(as.UserTime))
		t.SetCounter("kernel_ns", int64(as.KernelTime))
		t.SetCounter("iowait_ns", int64(as.IOWait))
		t.SetCounter("mode_switches", int64(as.ModeSwitches))
		t.SetCounter("context_switches", int64(as.ContextSwitches))
		t.SetCounter("cache_bytes", p.Memory.Current())
		t.SetCounter("cache_bytes_max", p.Memory.MaxSum())
		if a := p.Admission; a != nil {
			as := a.Stats()
			t.SetCounter("admission_offered", int64(as.Offered))
			t.SetCounter("admission_admitted", int64(as.Admitted))
			t.SetCounter("admission_shed", int64(as.Shed))
			t.SetCounter("admission_max_queued", int64(as.MaxQueued))
			t.SetCounter("admission_queued_ns", int64(as.QueuedTime))
		}
		var crashes uint64
		for _, c := range p.clients {
			crashes += c.Crashes()
		}
		for _, m := range p.kernMounts {
			crashes += m.Crashes()
		}
		if crashes > 0 {
			t.SetCounter("client_crashes", int64(crashes))
		}
		for _, c := range p.clients {
			cs := c.Stats()
			t.AddCounter("cache_read_bytes", cs.ReadBytes)
			t.AddCounter("cache_miss_bytes", cs.MissBytes)
			t.AddCounter("cache_write_bytes", cs.WriteBytes)
			t.AddCounter("cache_flushed_bytes", cs.FlushedBytes)
			if bs := c.BreakerStats(); bs != (cluster.BreakerStats{}) {
				t.AddCounter("breaker_opens", int64(bs.Opens))
				t.AddCounter("breaker_short_circuits", int64(bs.ShortCircuits))
				t.AddCounter("breaker_probes", int64(bs.Probes))
				t.AddCounter("breaker_probe_failures", int64(bs.ProbeFailures))
			}
			// Live per-request waits land in "client_lock" via
			// Span.LockWait; the full mutex aggregate (including
			// flusher-side holds) is kept under a separate key.
			merge(t.Lock("client_lock_total"), lockAgg(c.ClientLock().Stats()))
		}
		t.AddFaults(p.FaultStats())
		for _, cont := range p.containers {
			if u := cont.Mount.Union; u != nil {
				t.AddCounter("copy_ups", int64(u.CopyUps()))
				t.AddCounter("copy_up_bytes", u.CopyUpBytes())
			}
			if tr := cont.Mount.IPC; tr != nil {
				t.AddCounter("ipc_calls", int64(tr.Calls()))
				t.AddCounter("ipc_wakeups", int64(tr.Wakeups()))
				t.AddCounter("ipc_scale_events", int64(tr.ScaleEvents()))
			}
		}
	}
}
