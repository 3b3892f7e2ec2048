// Package telemetry is a deterministic, virtual-time streaming
// telemetry layer. It consumes the obs span/op stream (fed by
// core.AttachMonitor through obs telemetry sinks) and maintains, online,
// per-tenant windowed aggregates — op/byte/error rates, p50/p99/p999
// from a metrics.Histogram (the same one every harness row uses),
// admission queue depths and sheds, and a victim×aggressor interference
// snapshot — plus per-tenant SLO monitors with multi-window burn-rate
// alerting.
//
// Determinism contract: the Monitor never reads a wall clock or any
// clock at all — every method takes the current virtual time, and
// ingestion uses event-carried completion times. All iteration that
// produces output is over sorted keys, so the windows CSV and alert
// ledger are byte-identical across runs of the same scenario and
// seed. A nil *Monitor is a no-op on every method, matching the obs
// zero-overhead-when-disabled contract.
package telemetry

import (
	"sort"
	"time"

	"repro/internal/metrics"
)

// Config parameterises a Monitor. Zero values pick defaults.
type Config struct {
	// FastWindow is the tumbling aggregation window (default 1s of
	// virtual time). All rates, latency quantiles, and the fast SLO
	// burn window use it.
	FastWindow time.Duration
	// SlowWindow is the rolling confirmation window for burn-rate
	// alerting (default 60s). It is rounded up to a whole number of
	// fast windows.
	SlowWindow time.Duration
	// SampleInterval > 0 asks the host (core.AttachMonitor) to install
	// a periodic engine ticker driving Tick. The Monitor itself never
	// schedules anything; with SampleInterval == 0 it is purely
	// event-driven and contributes zero engine events.
	SampleInterval time.Duration
	// MaxWindows bounds the retained window-row ring (default 16384
	// rows). Older rows are evicted; running totals are unaffected.
	MaxWindows int
	// SLOs to monitor. Specs with Tenant == "" are instantiated lazily
	// per observed tenant.
	SLOs []SLO
}

// AdmissionSample is one tenant's admission-control state, reported by
// the probe installed with SetAdmissionProbe.
type AdmissionSample struct {
	Tenant string
	Queued int    // instantaneous queue depth
	Shed   uint64 // cumulative sheds since start
}

// WindowRow is one tenant's aggregate over one closed fast window.
type WindowRow struct {
	Index  int64         // window ordinal: Start / FastWindow
	Start  time.Duration // virtual time
	End    time.Duration
	Tenant string

	Ops    uint64
	Errors uint64
	Bytes  int64

	P50  time.Duration
	P99  time.Duration
	P999 time.Duration
	Mean time.Duration

	Queued int    // max sampled admission queue depth in the window
	Shed   uint64 // sheds during this window

	TopAggressor     string // tenant charged the most wait time against us
	TopAggressorWait time.Duration
}

// Total is the running per-(tenant, op) sum over all closed windows
// plus the finalized partial window — the exportable counterpart of
// the obs metrics registry, used by the telemetry-consistency fuzz
// invariant.
type Total struct {
	Tenant string
	Op     string
	Ops    uint64
	Errors uint64
	Bytes  int64
	LatSum time.Duration
}

type totKey struct {
	tenant string
	op     string
}

// opAgg accumulates one (tenant, op) pair inside the open window.
type opAgg struct {
	ops    uint64
	errors uint64
	bytes  int64
	latSum time.Duration
}

// tenantWindow is one tenant's open fast window.
type tenantWindow struct {
	ops    uint64
	errors uint64
	bytes  int64
	lat    *metrics.Histogram
	byOp   map[string]*opAgg

	queued   int // max of probe samples this window
	lastShed uint64
	shed     uint64 // delta accumulated from probe samples

	waitBy map[string]time.Duration // aggressor tenant -> wait charged
}

// Monitor is the streaming telemetry aggregator. Create with New; a
// nil Monitor is safe to call.
type Monitor struct {
	fast  time.Duration
	slowN int
	cfg   Config

	cur     int64 // index of the open fast window
	started bool

	tenants map[string]*tenantWindow
	slos    map[sloKey]*sloState
	totals  map[totKey]*Total

	// SLO arming interval: ops completing before armAt or after
	// disarmAt (when > 0) bypass SLO counting, and the ExpectedOps
	// shortfall penalty applies only to windows fully inside it.
	armAt    time.Duration
	disarmAt time.Duration

	rows    []WindowRow
	evicted int // rows dropped from the front of the ring

	probe func() []AdmissionSample

	alerts    []AlertEvent
	finalized bool
}

// New builds a Monitor from cfg.
func New(cfg Config) *Monitor {
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = time.Second
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 60 * time.Second
	}
	if cfg.MaxWindows <= 0 {
		cfg.MaxWindows = 16384
	}
	slowN := int((cfg.SlowWindow + cfg.FastWindow - 1) / cfg.FastWindow)
	if slowN < 1 {
		slowN = 1
	}
	cfg.SLOs = append([]SLO(nil), cfg.SLOs...)
	m := &Monitor{
		fast:    cfg.FastWindow,
		slowN:   slowN,
		cfg:     cfg,
		tenants: make(map[string]*tenantWindow),
		slos:    make(map[sloKey]*sloState),
		totals:  make(map[totKey]*Total),
	}
	for i := range m.cfg.SLOs {
		spec := m.cfg.SLOs[i].withDefaults()
		m.cfg.SLOs[i] = spec
		if spec.Tenant != "" {
			k := sloKey{slo: spec.Name, tenant: spec.Tenant}
			m.slos[k] = newSLOState(spec, spec.Tenant, slowN)
		}
	}
	return m
}

// SampleInterval reports the configured ticker interval (0 = none).
// Safe on nil.
func (m *Monitor) SampleInterval() time.Duration {
	if m == nil {
		return 0
	}
	return m.cfg.SampleInterval
}

// ArmSLOs restricts SLO counting to ops completing in [from, until]
// (until == 0 means no upper bound): warmup, preparation, and
// post-measurement drain traffic still land in the windowed aggregates,
// but the alert ledger reflects only the measured interval — the
// telemetry equivalent of a maintenance window. The ExpectedOps
// shortfall penalty likewise applies only to windows fully inside the
// armed interval, so idle time outside it does not read as an outage.
// Safe on nil.
func (m *Monitor) ArmSLOs(from, until time.Duration) {
	if m == nil {
		return
	}
	m.armAt, m.disarmAt = from, until
}

// armed reports whether the window [start, end] lies inside the SLO
// arming interval.
func (m *Monitor) armed(start, end time.Duration) bool {
	return start >= m.armAt && (m.disarmAt == 0 || end <= m.disarmAt)
}

// SetAdmissionProbe installs a callback enumerating per-tenant
// admission state. It is invoked at window closes and ticks; it must
// be deterministic (sorted output not required — samples are keyed by
// tenant).
func (m *Monitor) SetAdmissionProbe(probe func() []AdmissionSample) {
	if m == nil {
		return
	}
	m.probe = probe
}

func (m *Monitor) window(tenant string) *tenantWindow {
	w := m.tenants[tenant]
	if w == nil {
		w = &tenantWindow{
			lat:    metrics.NewHistogram(),
			byOp:   make(map[string]*opAgg),
			waitBy: make(map[string]time.Duration),
		}
		m.tenants[tenant] = w
		// Lazily instantiate per-tenant SLO monitors.
		for _, spec := range m.cfg.SLOs {
			if spec.Tenant != "" {
				continue
			}
			k := sloKey{slo: spec.Name, tenant: tenant}
			if _, ok := m.slos[k]; !ok {
				m.slos[k] = newSLOState(spec, tenant, m.slowN)
			}
		}
	}
	return w
}

// advance closes every fast window strictly before the one containing
// now. Event times arrive in engine order, so now is monotone.
func (m *Monitor) advance(now time.Duration) {
	idx := int64(now / m.fast)
	if !m.started {
		m.cur = idx
		m.started = true
		return
	}
	for m.cur < idx {
		m.closeWindow((m.cur + 1) * int64(m.fast))
		m.cur++
	}
}

// RecordOp ingests one completed VFS op. now is the op's virtual
// completion time; err covers both real failures and admission sheds
// (shed ops surface as errored OpEvents). Safe on nil.
func (m *Monitor) RecordOp(now time.Duration, tenant, op string, latency time.Duration, bytes int64, err bool) {
	if m == nil || m.finalized {
		return
	}
	m.advance(now)
	w := m.window(tenant)
	w.ops++
	w.bytes += bytes
	if err {
		w.errors++
	}
	w.lat.Record(latency)
	a := w.byOp[op]
	if a == nil {
		a = &opAgg{}
		w.byOp[op] = a
	}
	a.ops++
	a.bytes += bytes
	a.latSum += latency
	if err {
		a.errors++
	}
	if now < m.armAt || (m.disarmAt > 0 && now > m.disarmAt) {
		return
	}
	for _, spec := range m.cfg.SLOs {
		t := spec.Tenant
		if t == "" {
			t = tenant
		} else if t != tenant {
			continue
		}
		if st := m.slos[sloKey{slo: spec.Name, tenant: t}]; st != nil {
			st.record(op, latency, err)
		}
	}
}

// RecordWait charges dur of lock/resource wait suffered by victim to
// aggressor, feeding the live interference snapshot. Safe on nil.
func (m *Monitor) RecordWait(now time.Duration, dur time.Duration, victim, aggressor string) {
	if m == nil || m.finalized || dur <= 0 {
		return
	}
	if victim == "" || aggressor == "" || victim == aggressor {
		return
	}
	m.advance(now)
	m.window(victim).waitBy[aggressor] += dur
}

// Tick advances the window grid to now and samples the admission
// probe. Driven by the optional engine ticker (SampleInterval > 0);
// never required for correctness, only for closing windows during
// event gaps and catching intra-window queue-depth peaks. Safe on nil.
func (m *Monitor) Tick(now time.Duration) {
	if m == nil || m.finalized {
		return
	}
	m.advance(now)
	m.sampleAdmission()
}

func (m *Monitor) sampleAdmission() {
	if m.probe == nil {
		return
	}
	for _, s := range m.probe() {
		w := m.window(s.Tenant)
		if s.Queued > w.queued {
			w.queued = s.Queued
		}
		if s.Shed > w.lastShed {
			w.shed += s.Shed - w.lastShed
			w.lastShed = s.Shed
		}
	}
}

// closeWindow emits one WindowRow per tenant with activity, folds the
// window into the running totals, and evaluates every SLO monitor.
// Note: the admission probe is NOT sampled here. Windows close lazily
// when a later event arrives, so the probe's state at close time may
// already reflect activity past the window boundary; sampling it would
// smear that activity into the old window. Only Tick (in-window) and
// Finalize (before advancing) sample the probe.
func (m *Monitor) closeWindow(endUnits int64) {
	end := time.Duration(endUnits)
	start := end - m.fast

	names := make([]string, 0, len(m.tenants))
	for name := range m.tenants {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		w := m.tenants[name]
		if w.ops == 0 && w.shed == 0 && len(w.waitBy) == 0 {
			continue
		}
		row := WindowRow{
			Index:  int64(start / m.fast),
			Start:  start,
			End:    end,
			Tenant: name,
			Ops:    w.ops,
			Errors: w.errors,
			Bytes:  w.bytes,
			P50:    w.lat.Quantile(0.50),
			P99:    w.lat.Quantile(0.99),
			P999:   w.lat.Quantile(0.999),
			Mean:   w.lat.Mean(),
			Queued: w.queued,
			Shed:   w.shed,
		}
		for agg, wait := range w.waitBy {
			if wait > row.TopAggressorWait ||
				(wait == row.TopAggressorWait && wait > 0 && agg < row.TopAggressor) {
				row.TopAggressor = agg
				row.TopAggressorWait = wait
			}
		}
		for op, a := range w.byOp {
			k := totKey{tenant: name, op: op}
			t := m.totals[k]
			if t == nil {
				t = &Total{Tenant: name, Op: op}
				m.totals[k] = t
			}
			t.Ops += a.ops
			t.Errors += a.errors
			t.Bytes += a.bytes
			t.LatSum += a.latSum
		}
		m.rows = append(m.rows, row)

		// Reset in place: keep maps to avoid per-window allocation.
		w.ops, w.errors, w.bytes = 0, 0, 0
		w.lat.Reset()
		for op := range w.byOp {
			delete(w.byOp, op)
		}
		for agg := range w.waitBy {
			delete(w.waitBy, agg)
		}
		w.queued, w.shed = 0, 0
	}
	if over := len(m.rows) - m.cfg.MaxWindows; over > 0 {
		m.rows = append(m.rows[:0], m.rows[over:]...)
		m.evicted += over
	}

	armed := m.armed(start, end)
	for _, k := range sortedSLOKeys(m.slos) {
		if ev, ok := m.slos[k].closeWindow(end, armed); ok {
			m.alerts = append(m.alerts, ev)
		}
	}
}

// Finalize closes the trailing partial window at now. Idempotent;
// further Record calls are ignored afterwards. Safe on nil.
func (m *Monitor) Finalize(now time.Duration) {
	if m == nil || m.finalized {
		return
	}
	// Sample before advancing so trailing admission deltas land in the
	// window they occurred in rather than a synthetic final one.
	m.sampleAdmission()
	m.advance(now)
	hasOpen := false
	for _, w := range m.tenants {
		if w.ops > 0 || w.shed > 0 || len(w.waitBy) > 0 {
			hasOpen = true
			break
		}
	}
	if hasOpen || m.probe != nil {
		m.closeWindow((m.cur + 1) * int64(m.fast))
	}
	m.finalized = true
}

// Windows returns the retained window rows in emission order. The
// slice is shared; do not mutate. Safe on nil.
func (m *Monitor) Windows() []WindowRow {
	if m == nil {
		return nil
	}
	return m.rows
}

// EvictedWindows reports how many rows were dropped from the ring.
func (m *Monitor) EvictedWindows() int {
	if m == nil {
		return 0
	}
	return m.evicted
}

// Alerts returns the alert ledger in fire/clear order. Safe on nil.
func (m *Monitor) Alerts() []AlertEvent {
	if m == nil {
		return nil
	}
	return m.alerts
}

// Totals returns the per-(tenant, op) running sums over all closed
// windows, sorted by tenant then op. Call after Finalize for the
// sum-of-windows == registry-total invariant. Safe on nil.
func (m *Monitor) Totals() []Total {
	if m == nil {
		return nil
	}
	keys := make([]totKey, 0, len(m.totals))
	for k := range m.totals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].op < keys[j].op
	})
	out := make([]Total, 0, len(keys))
	for _, k := range keys {
		out = append(out, *m.totals[k])
	}
	return out
}
