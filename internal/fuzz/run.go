package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blame"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/kern"
	"repro/internal/kvstore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// Result is everything the invariant checkers need from one finished
// testbed run of a scenario.
type Result struct {
	// Victim probe measurements (WAL fsync writer, cold backend reader).
	WriteOps  uint64
	ReadOps   uint64
	Errors    uint64
	WriteMean time.Duration
	ReadMean  time.Duration

	// AckedBytes is the fsync-acknowledged WAL size; StoredBytes is
	// what the cluster can reconstruct after the schedule completed.
	AckedBytes  int64
	StoredBytes int64

	// Open-loop aggressor accounting (zero unless the scenario has an
	// OfferedLoad).
	OLOffered   uint64
	OLCompleted uint64
	OLShed      uint64
	OLFailed    uint64
	// Admission snapshots every pool's admission counters at drain, in
	// pool creation order (empty unless the scenario has an AdmitQueue).
	Admission []TenantAdmission

	// Crash dimension evidence (zero values unless the scenario
	// schedules a client crash): events observed, events whose recovery
	// completed, pools interrupted summed over events, and the /wal size
	// visible through a fresh post-recovery handle (the remounted fsync
	// frontier the crash-consistency checker compares with AckedBytes).
	CrashEvents    int
	CrashRecovered int
	CrashAffected  int
	RemountSize    int64

	// Faults sums the victim pool's client fault counters, counting
	// each shared client or kernel mount exactly once.
	Faults metrics.FaultCounters
	// RegistryFaults is the victim tenant's fault aggregate as
	// harvested into the observability registry (must match Faults).
	RegistryFaults metrics.FaultCounters

	// Trace is the run's captured VFS op stream (nil unless the scenario
	// has the TraceReplay dimension); TraceOps and TraceHash summarize
	// it for the determinism digest.
	Trace     *trace.Trace
	TraceOps  int
	TraceHash string

	// Telemetry dimension evidence (empty unless the scenario attaches
	// the live monitor): the monitor's per-(tenant, op) running sums
	// folded from its closed windows, the registry's facade-op counters
	// they must equal, closed-window and alert-ledger sizes, and a
	// SHA-256 over the windows/alerts/totals CSV exports (the artifact-
	// determinism fingerprint of the telemetry layer).
	TelTotals   []TelOpCount
	TelRegistry []TelOpCount
	TelWindows  int
	TelAlerts   int
	TelHash     string

	// Leaked lists spans opened but never ended at engine drain.
	Leaked []string
	// Unattributed counts waits observed with no bound span.
	Unattributed uint64
	// Report is the blame analysis of the run.
	Report blame.Report
	// ArtifactHash is a SHA-256 over the run's exported trace, metrics
	// and blame artifacts — the replay-determinism fingerprint.
	ArtifactHash string
	// Summary is a deterministic one-line digest for sweep output.
	Summary string
}

// TenantAdmission is one pool's admission snapshot for the bounded-
// queue and admission-accounting checkers.
type TenantAdmission struct {
	Tenant   string
	QueueCap int
	Stats    vfsapi.AdmissionStats
}

// TelOpCount is one (tenant, op) aggregate in the telemetry-consistency
// comparison: the same shape is filled from the monitor's windowed
// totals and from the obs metrics registry, and the two must match
// exactly. Mean stands in for the latency sum (the registry histogram
// exposes only the mean, which is the exact sum over the exact count on
// both sides).
type TelOpCount struct {
	Tenant string
	Op     string
	Ops    uint64
	Errors uint64
	Bytes  int64
	Mean   time.Duration
}

// Evaluate runs a scenario through the full pipeline the checkers
// consume: the run itself, an identical replay (determinism), and —
// when co-tenants exist — a solo run with the tenants removed (the
// isolation baseline).
func Evaluate(sc Scenario) *Outcome {
	o := &Outcome{Scenario: sc}
	o.Full = RunScenario(sc, false)
	o.Replay = RunScenario(sc, false)
	if len(sc.Tenants) > 0 {
		o.Solo = RunScenario(sc, true)
	}
	if sc.TraceReplay && o.Full.Trace != nil {
		o.TraceRuns = []TraceReplayRun{
			replayTrace(sc, o.Full.Trace),
			replayTrace(sc, o.Full.Trace),
		}
	}
	return o
}

// scale converts the scenario sizing into the experiments form.
func (sc Scenario) scale() experiments.Scale {
	return experiments.Scale{Factor: sc.Factor, Duration: sc.Duration, Warmup: sc.Warmup}
}

// victimFaultStats sums fault counters over every distinct client and
// kernel Ceph store mounted in the pool. Shared clients and shared
// kernel mounts (scaleup clones) are counted once.
func victimFaultStats(pool *core.Pool) metrics.FaultCounters {
	var total metrics.FaultCounters
	seen := map[interface{}]bool{}
	for _, cont := range pool.Containers() {
		if c := cont.Mount.Client; c != nil && !seen[c] {
			seen[c] = true
			total.Add(c.FaultStats())
		}
		if m := cont.Mount.KernelMount; m != nil && !seen[m] {
			seen[m] = true
			if cs, ok := m.Store().(*kern.CephStore); ok {
				total.Add(cs.FaultStats())
			}
		}
	}
	return total
}

// host is one scenario's testbed: the victim container (plus, with
// SharedMount, a scaleup clone sharing its client) in pool "victim",
// and one container per co-tenant in pools "t0", "t1", ...
type host struct {
	tb         *core.Testbed
	victimPool *core.Pool
	victim     *core.Container
	tenants    []*core.Container
}

// newHost builds the testbed every run of the scenario shares: cores,
// cost model, admission policy, replication, cache sizing and pools.
// observe runs on the bare testbed, before any pool exists — where an
// observer must attach. With solo set the co-tenant pools are omitted
// while the host stays identically sized.
func (sc Scenario) newHost(solo bool, observe func(tb *core.Testbed)) *host {
	scale := sc.scale()
	var pol *core.OverloadPolicy
	if sc.AdmitQueue > 0 {
		pol = &core.OverloadPolicy{QueueCap: sc.AdmitQueue, RetrySeed: uint64(sc.Seed)}
	}
	tb := core.NewTestbed(core.TestbedConfig{Cores: 2 * (1 + len(sc.Tenants)), Params: scale.Params(), Overload: pol})
	if observe != nil {
		observe(tb)
	}
	tb.Cluster.SetReplication(sc.Replication)

	poolMem := scale.PoolMem()
	var cacheBytes int64
	if sc.CacheFrac > 0 {
		cacheBytes = poolMem / int64(sc.CacheFrac)
	}
	h := &host{tb: tb}
	if err := tb.Cluster.ProvisionDir("/containers/victim"); err != nil {
		panic(err)
	}
	h.victimPool = tb.NewPool("victim", cpu.MaskRange(0, 2), poolMem)
	victim, err := h.victimPool.NewContainer("victim", core.MountSpec{
		Config: sc.Config, UpperDir: "/containers/victim", CacheBytes: cacheBytes,
	})
	if err != nil {
		panic(err)
	}
	h.victim = victim
	if sc.SharedMount {
		// A scaleup clone: same image, same client/kernel mount. It
		// runs no workload of its own; its presence exercises the
		// shared-mount accounting paths.
		if _, err := h.victimPool.NewContainer("victim-clone", core.MountSpec{
			Config: sc.Config, UpperDir: "/containers/victim", CacheBytes: cacheBytes,
			SharedClient: victim.Mount.Client, SharedKernelMount: victim.Mount.KernelMount,
		}); err != nil {
			panic(err)
		}
	}
	if solo {
		return h
	}
	for i := range sc.Tenants {
		dir := fmt.Sprintf("/containers/t%d", i)
		if err := tb.Cluster.ProvisionDir(dir); err != nil {
			panic(err)
		}
		pool := tb.NewPool(fmt.Sprintf("t%d", i), cpu.MaskRange(2+2*i, 4+2*i), poolMem)
		cont, err := pool.NewContainer(fmt.Sprintf("t%d", i), core.MountSpec{
			Config: sc.Config, UpperDir: dir, CacheBytes: cacheBytes,
		})
		if err != nil {
			panic(err)
		}
		h.tenants = append(h.tenants, cont)
	}
	return h
}

// RunScenario executes one scenario on a fresh testbed and collects
// the checker inputs. With solo set, the co-tenant workloads (and
// their pools) are omitted while the host stays identically sized —
// the isolation baseline the victim is compared against.
func RunScenario(sc Scenario, solo bool) *Result {
	scale := sc.scale()
	var rec *obs.Recorder
	var mon *telemetry.Monitor
	var capRec *trace.Recorder
	h := sc.newHost(solo, func(tb *core.Testbed) {
		rec = obs.New(obs.Config{Clock: tb.Eng.Now})
		tb.AttachObserver(rec)
		if sc.Telemetry {
			// Fast windows at 1/8 of the measurement window give every run
			// a handful of closed windows to fold; the error-rate SLO gives
			// the alert ledger coverage whenever a fault schedule pushes
			// errors. SampleInterval stays zero so the monitor adds no
			// engine events and the schedule is event-for-event the
			// unmonitored one.
			mon = telemetry.New(telemetry.Config{
				FastWindow: sc.Duration / 8,
				SlowWindow: sc.Duration / 2,
				SLOs: []telemetry.SLO{
					{Name: "err-burn", Budget: 0.02, FireBurn: 2, ClearBurn: 1, MinOps: 1},
				},
			})
			tb.AttachMonitor(mon)
		}
		if sc.TraceReplay {
			capRec = trace.NewRecorder(sc.Config.String(), 0)
			capRec.Attach(rec)
		}
	})
	tb, victim := h.tb, h.victim
	res := &Result{}

	// The cold file overflows every cache tier so victim reads keep
	// hitting the backend through any fault window.
	coldSize := scale.PoolMem() + scale.PoolMem()/2
	const readChunk = 256 << 10
	wal := &workloads.WALWriter{
		FS: victim.Mount.Default, Path: "/wal",
		NewThread: victim.NewThread, Reopen: sc.Crash != "",
	}
	reader := &workloads.SeqReader{
		Name: "cold-reader", FS: victim.Mount.Default, Path: "/cold",
		Size: coldSize, Chunk: readChunk, NewThread: victim.NewThread,
		Reopen: sc.Crash != "", Stats: workloads.NewStats(),
	}

	tb.Eng.Go("master", func(p *sim.Proc) {
		defer tb.Stop()

		g := workloads.NewGroup(tb.Eng)
		g.Go("prep-victim", func(pp *sim.Proc) {
			ctx := vfsapi.Ctx{P: pp, T: victim.NewThread()}
			wal.Create(ctx)
			workloads.WriteFile(ctx, victim.Mount.Default, "/cold", coldSize, 1<<20, false)
		})

		type runner interface {
			Run(g *workloads.Group, clock workloads.Clock)
		}
		runners := make([]runner, len(h.tenants))
		dbs := make([]*kvstore.DB, len(h.tenants))
		for i, cont := range h.tenants {
			i, cont, spec := i, cont, sc.Tenants[i]
			fs := cont.Mount.Default
			if spec.Workload == "randio" {
				// The paper's noisy neighbour runs on the local ext4
				// array through the shared kernel.
				fs = kern.NewSyscalls(tb.Kernel, tb.LocalFS)
			}
			seed := workloads.StreamSeed(sc.Seed, spec.Workload, i)
			g.Go(fmt.Sprintf("prep-t%d", i), func(pp *sim.Proc) {
				ctx := vfsapi.Ctx{P: pp, T: cont.NewThread()}
				switch spec.Workload {
				case "fileserver":
					w := &workloads.Fileserver{
						FS: fs, Dir: "/flsdata", NewThread: cont.NewThread,
						Seed: seed, Threads: spec.Threads,
						Files: 12, MeanFileSize: 256 << 10,
					}
					w.Defaults(scale.Factor)
					if err := w.Prepare(ctx); err != nil {
						panic(err)
					}
					runners[i] = w
				case "webserver":
					w := &workloads.Webserver{
						FS: fs, Dir: "/webdata", NewThread: cont.NewThread,
						Seed: seed, Threads: spec.Threads, Files: 100,
					}
					w.Defaults(scale.Factor)
					if err := w.Prepare(ctx); err != nil {
						panic(err)
					}
					runners[i] = w
				case "kvput":
					db, err := kvstore.Open(ctx, kvstore.Config{
						FS: fs, Dir: "/kv", MemtableBytes: 4 << 20,
						Eng: tb.Eng, Params: tb.Params, NewThread: cont.NewThread,
					})
					if err != nil {
						panic(err)
					}
					dbs[i] = db
					runners[i] = &workloads.KVPut{
						DB: db, TotalBytes: 4 << 20, ValueSize: 64 << 10,
						Threads: spec.Threads, Seed: seed, NewThread: cont.NewThread,
						Stats: workloads.NewStats(),
					}
				case "randio":
					w := &workloads.RandomIO{
						FS: fs, Path: fmt.Sprintf("/rnd%d", i), NewThread: cont.NewThread,
						Seed: seed, Threads: spec.Threads, FileSize: 8 << 20,
					}
					w.Defaults(scale.Factor)
					if err := w.Prepare(ctx); err != nil {
						panic(err)
					}
					runners[i] = w
				default:
					panic("fuzz: unknown tenant workload " + spec.Workload)
				}
			})
		}
		g.Wait(p)

		now := tb.Eng.Now()
		clock := workloads.Clock{Eng: tb.Eng, From: now + sc.Warmup, Stop: now + sc.Warmup + sc.Duration}

		walNode, err := tb.Cluster.Tree().Lookup("/containers/victim/wal")
		if err != nil {
			panic(err)
		}
		walIno := walNode.Ino
		sched := sc.Schedule
		if sc.Crash != "" {
			if sched != "" {
				sched += ";"
			}
			sched += sc.Crash
		}
		sched = strings.ReplaceAll(sched, "@wal",
			strconv.Itoa(tb.Cluster.PlacementOf(walIno, 0)))
		plan, err := faults.Parse(sched)
		if err != nil {
			panic(err)
		}
		if _, err := faults.InstallWithTargets(tb.Eng, tb.Cluster, tb, plan, clock.From); err != nil {
			panic(err)
		}

		run := workloads.NewGroup(tb.Eng)
		wal.Run(run, clock)
		reader.Run(run, clock)
		var ol *workloads.OpenLoop
		if sc.OfferedLoad > 0 {
			ol = &workloads.OpenLoop{
				FS: victim.Mount.Default, Path: "/cold", FileSize: coldSize,
				OpSize: readChunk, Rate: float64(sc.OfferedLoad),
				Seed:      workloads.StreamSeed(sc.Seed, "openloop", 0),
				NewThread: victim.NewThread, Stats: workloads.NewStats(),
			}
			ol.Run(run, clock)
		}
		for i, w := range runners {
			if w == nil {
				panic(fmt.Sprintf("fuzz: tenant %d has no runner", i))
			}
			w.Run(run, clock)
		}
		run.Wait(p)

		// A kvstore keeps a background compaction loop alive until closed;
		// an open DB would re-arm its timer forever and the engine would
		// never drain.
		for i, db := range dbs {
			if db != nil {
				db.Close(vfsapi.Ctx{P: p, T: h.tenants[i].NewThread()})
			}
		}

		// Collect durability evidence only after every fault window has
		// disarmed: a crashed OSD still down at collection time would
		// read as (transient) data loss.
		var lastEnd time.Duration
		for _, w := range plan.Windows {
			if w.End > lastEnd {
				lastEnd = w.End
			}
		}
		if settle := clock.From + lastEnd + time.Millisecond; tb.Eng.Now() < settle {
			p.Sleep(settle - tb.Eng.Now())
		}

		// Post-recovery remount evidence: a fresh handle on the WAL after
		// every crash window has restarted shows the durable frontier an
		// application would see on reopen.
		if sc.Crash != "" {
			res.RemountSize = wal.Remount(vfsapi.Ctx{P: p, T: victim.NewThread()})
		}

		res.WriteOps = wal.Stats.Ops.Ops
		res.ReadOps = reader.Stats.Ops.Ops
		res.Errors = wal.Stats.Errors + reader.Stats.Errors
		res.WriteMean = wal.Stats.Latency.Mean()
		res.ReadMean = reader.Stats.Latency.Mean()
		res.AckedBytes = wal.Acked
		res.StoredBytes = tb.Cluster.StoredSize(walIno)
		res.Faults = victimFaultStats(h.victimPool)
		if ol != nil {
			res.OLOffered = ol.Offered
			res.OLCompleted = ol.Completed
			res.OLShed = ol.Shed
			res.OLFailed = ol.Failed
		}
	})
	tb.Eng.Run()

	for _, ev := range tb.CrashLog() {
		res.CrashEvents++
		if ev.Recovered {
			res.CrashRecovered++
		}
		res.CrashAffected += len(ev.Affected)
	}

	// Admission counters are final once the engine drains; pool order is
	// creation order, so the snapshot list is deterministic.
	for _, pl := range tb.Pools() {
		if a := pl.Admission; a != nil {
			res.Admission = append(res.Admission, TenantAdmission{
				Tenant: pl.Name, QueueCap: a.QueueCap(), Stats: a.Stats(),
			})
		}
	}

	if capRec != nil {
		res.Trace = capRec.Snapshot()
		res.TraceOps = len(res.Trace.Ops)
		res.TraceHash = res.Trace.ScheduleHash()
	}

	rec.Finalize()
	if mon != nil {
		res.TelTotals = monitorOpCounts(mon)
		res.TelRegistry = registryOpCounts(rec.Registry())
		res.TelWindows = len(mon.Windows())
		res.TelAlerts = len(mon.Alerts())
		res.TelHash = hashTelemetry(mon)
	}
	res.RegistryFaults = rec.Registry().Tenant("victim").Faults()
	res.Leaked = rec.LeakedSpans()
	res.Unattributed = rec.UnattributedWaits()
	res.Report = blame.Analyze("fuzz", rec)
	res.ArtifactHash = hashArtifacts(rec, res.Report)
	res.Summary = res.summaryLine()
	return res
}

// TraceReplayRun is one clean-testbed replay of a scenario's captured
// op trace, summarized for the trace-replay-determinism checker.
type TraceReplayRun struct {
	Hash       string // schedule hash of the replayed trace
	Ops        int
	Errors     int
	Skipped    int
	SequenceOK bool // replay preserved the recorded per-stream op sequence
}

// replayTrace reissues a captured op trace against a freshly built
// testbed shaped like the scenario's (same configuration, pools, cache
// sizing and admission policy) but with no workloads and no fault
// schedule. The capture includes preparation ops, so the replay is
// self-contained: recorded creates rebuild the fileset the later ops
// touch.
func replayTrace(sc Scenario, tr *trace.Trace) TraceReplayRun {
	h := sc.newHost(false, nil)
	bindings := map[string]trace.Binding{
		"victim": {FS: h.victim.Mount.Default, NewThread: h.victim.NewThread},
	}
	for i, cont := range h.tenants {
		bindings[fmt.Sprintf("t%d", i)] = trace.Binding{FS: cont.Mount.Default, NewThread: cont.NewThread}
	}

	var replayed *trace.Trace
	var stats *trace.ReplayStats
	h.tb.Eng.Go("trace-replay-master", func(p *sim.Proc) {
		defer h.tb.Stop()
		replayed, stats = trace.Replay(p, h.tb.Eng, tr, "replay", func(tenant string) (trace.Binding, bool) {
			b, ok := bindings[tenant]
			return b, ok
		})
	})
	h.tb.Eng.Run()

	return TraceReplayRun{
		Hash:       replayed.ScheduleHash(),
		Ops:        stats.Ops,
		Errors:     stats.Errors,
		Skipped:    stats.Skipped,
		SequenceOK: replayed.OpSequence() == tr.OpSequence(),
	}
}

// monitorOpCounts flattens the monitor's running totals into the
// comparison shape. Mean is the exact LatSum over the exact op count,
// matching the registry histogram's Mean on the other side.
func monitorOpCounts(mon *telemetry.Monitor) []TelOpCount {
	var out []TelOpCount
	for _, t := range mon.Totals() {
		c := TelOpCount{Tenant: t.Tenant, Op: t.Op, Ops: t.Ops, Errors: t.Errors, Bytes: t.Bytes}
		if t.Ops > 0 {
			c.Mean = t.LatSum / time.Duration(t.Ops)
		}
		out = append(out, c)
	}
	return out
}

// registryOpCounts flattens the obs registry's per-(tenant, op)
// counters into the comparison shape, sorted by tenant then op. The
// "writeback" op is excluded: background writeback spans end in the
// registry but never cross the facade, so the monitor legitimately
// never sees them.
func registryOpCounts(reg *obs.Registry) []TelOpCount {
	var out []TelOpCount
	tenants := make([]string, 0, len(reg.Tenants()))
	for name := range reg.Tenants() {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	for _, name := range tenants {
		tm := reg.Tenants()[name]
		ops := make([]string, 0, len(tm.Ops()))
		for op := range tm.Ops() {
			if op == "writeback" {
				continue
			}
			ops = append(ops, op)
		}
		sort.Strings(ops)
		for _, op := range ops {
			st := tm.Ops()[op]
			out = append(out, TelOpCount{
				Tenant: name, Op: op,
				Ops: st.Ops, Errors: st.Errors, Bytes: st.Bytes,
				Mean: st.Hist.Mean(),
			})
		}
	}
	return out
}

// hashTelemetry fingerprints the monitor's exported artifacts — the
// windows CSV, the alert ledger and the running totals — which must be
// byte-identical across replays of one scenario.
func hashTelemetry(mon *telemetry.Monitor) string {
	h := sha256.New()
	if err := mon.WriteWindowsCSV(h); err != nil {
		panic(err)
	}
	if err := mon.WriteAlertsCSV(h); err != nil {
		panic(err)
	}
	if err := mon.WriteTotalsCSV(h); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashArtifacts fingerprints the run's exported artifacts: the
// Perfetto trace, the metrics JSON and the blame JSON, all of which
// must be byte-identical across replays of one scenario.
func hashArtifacts(rec *obs.Recorder, rep blame.Report) string {
	h := sha256.New()
	runs := []obs.Run{{Label: "fuzz", Rec: rec}}
	if err := obs.WriteTrace(h, runs); err != nil {
		panic(err)
	}
	if err := obs.WriteMetrics(h, runs); err != nil {
		panic(err)
	}
	if err := blame.WriteJSON(h, []blame.Report{rep}); err != nil {
		panic(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// summaryLine renders the deterministic per-run digest. Overload
// fields are appended only when the dimension is active, keeping
// historical scenario digests unchanged.
func (r *Result) summaryLine() string {
	s := fmt.Sprintf("w=%d/%v r=%d/%v err=%d acked=%d stored=%d retries=%d failovers=%d misses=%d reqs=%d leaks=%d hash=%s",
		r.WriteOps, r.WriteMean, r.ReadOps, r.ReadMean, r.Errors,
		r.AckedBytes, r.StoredBytes,
		r.Faults.Retries, r.Faults.Failovers, r.Faults.DeadlineMisses,
		r.Report.Requests, len(r.Leaked), r.ArtifactHash[:12])
	if r.OLOffered > 0 || len(r.Admission) > 0 {
		var off, adm, shed uint64
		maxq := 0
		for _, a := range r.Admission {
			off += a.Stats.Offered
			adm += a.Stats.Admitted
			shed += a.Stats.Shed
			if a.Stats.MaxQueued > maxq {
				maxq = a.Stats.MaxQueued
			}
		}
		s += fmt.Sprintf(" ol=%d/%d/%d/%d adm=%d/%d/%d maxq=%d",
			r.OLOffered, r.OLCompleted, r.OLShed, r.OLFailed, off, adm, shed, maxq)
	}
	if r.CrashEvents > 0 {
		s += fmt.Sprintf(" crash=%d/%d aff=%d remount=%d",
			r.CrashEvents, r.CrashRecovered, r.CrashAffected, r.RemountSize)
	}
	if r.TraceOps > 0 {
		s += fmt.Sprintf(" trace=%d/%s", r.TraceOps, r.TraceHash[:12])
	}
	if r.TelHash != "" {
		s += fmt.Sprintf(" tel=%d/%d/%s", r.TelWindows, r.TelAlerts, r.TelHash[:12])
	}
	return s
}
