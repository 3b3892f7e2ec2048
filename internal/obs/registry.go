package obs

import (
	"time"

	"repro/internal/metrics"
)

// Registry is the per-tenant metrics store of one run: operation
// latency histograms and counters, lock-wait attribution, free-form
// counters, fault counters and virtual-time series, keyed by tenant
// name. The pseudo-tenant "host" holds whole-machine aggregates
// (kernel lock totals, per-core busy time, cluster and network
// counters).
type Registry struct {
	tenants map[string]*TenantMetrics
}

// HostTenant is the reserved tenant name for host-wide aggregates.
const HostTenant = "host"

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{tenants: map[string]*TenantMetrics{}}
}

// Tenant returns (creating on first use) the named tenant's metrics.
func (g *Registry) Tenant(name string) *TenantMetrics {
	t, ok := g.tenants[name]
	if !ok {
		t = &TenantMetrics{
			ops:      map[string]*OpStats{},
			locks:    map[string]*LockAgg{},
			counters: map[string]int64{},
			series:   map[string]*Series{},
		}
		g.tenants[name] = t
	}
	return t
}

// Tenants returns the tenant map (exporter access; exporters must
// iterate it in sorted key order).
func (g *Registry) Tenants() map[string]*TenantMetrics { return g.tenants }

// TenantMetrics holds every metric attributed to one tenant.
type TenantMetrics struct {
	ops      map[string]*OpStats
	locks    map[string]*LockAgg
	counters map[string]int64
	series   map[string]*Series
	faults   metrics.FaultCounters
}

// Op returns (creating on first use) the stats of one operation type.
func (t *TenantMetrics) Op(name string) *OpStats {
	o, ok := t.ops[name]
	if !ok {
		o = &OpStats{Hist: metrics.NewHistogram()}
		t.ops[name] = o
	}
	return o
}

// Lock returns (creating on first use) the wait aggregate of a lock.
func (t *TenantMetrics) Lock(name string) *LockAgg {
	l, ok := t.locks[name]
	if !ok {
		l = &LockAgg{}
		t.locks[name] = l
	}
	return l
}

// Series returns (creating on first use) the named time series.
func (t *TenantMetrics) Series(name string) *Series {
	s, ok := t.series[name]
	if !ok {
		s = &Series{}
		t.series[name] = s
	}
	return s
}

// SetCounter sets a free-form counter (end-of-run harvest).
func (t *TenantMetrics) SetCounter(name string, v int64) { t.counters[name] = v }

// AddCounter accumulates into a free-form counter.
func (t *TenantMetrics) AddCounter(name string, v int64) { t.counters[name] += v }

// AddFaults accumulates fault-handling counters.
func (t *TenantMetrics) AddFaults(f metrics.FaultCounters) { t.faults.Add(f) }

// Faults returns the accumulated fault counters.
func (t *TenantMetrics) Faults() metrics.FaultCounters { return t.faults }

// Ops returns the op map (exporter access).
func (t *TenantMetrics) Ops() map[string]*OpStats { return t.ops }

// Locks returns the lock map (exporter access).
func (t *TenantMetrics) Locks() map[string]*LockAgg { return t.locks }

// Counters returns the counter map (exporter access).
func (t *TenantMetrics) Counters() map[string]int64 { return t.counters }

// OpStats aggregates one operation type of one tenant.
type OpStats struct {
	Hist   *metrics.Histogram
	Ops    uint64
	Bytes  int64
	Errors uint64
}

func (o *OpStats) record(d time.Duration, bytes int64, err error) {
	o.Ops++
	o.Bytes += bytes
	if err != nil {
		o.Errors++
	}
	o.Hist.Record(d)
}

// LockAgg aggregates lock behaviour: per-tenant live wait attribution
// (Count/Wait/MaxWait, filled by Span.LockWait) and, for host-level
// aggregates harvested from sim.Mutex stats, contention and hold.
type LockAgg struct {
	Count     uint64
	Contended uint64
	Wait      time.Duration
	Hold      time.Duration
	MaxWait   time.Duration
}

func (l *LockAgg) addWait(w time.Duration) {
	l.Count++
	l.Wait += w
	if w > 0 {
		l.Contended++
	}
	if w > l.MaxWait {
		l.MaxWait = w
	}
}

// Series is a virtual-time series sampled by the testbed's ticker.
type Series struct {
	Points []Point
}

// Point is one sample of a Series.
type Point struct {
	T time.Duration
	V float64
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}
