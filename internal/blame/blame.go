// Package blame is the latency attribution engine of the testbed: it
// turns the raw spans and passively observed wait intervals of an
// internal/obs recording into answers to "which resource — and which
// tenant holding it — is to blame for this request's latency, and by
// how much?".
//
// Three analyses build on one recording:
//
//   - Critical-path decomposition (Decompose): every traced request's
//     end-to-end latency is split into exclusive buckets — cpu-run,
//     runqueue-wait, per-lock waits, IPC queueing, net transfer, OSD
//     device, MDS service, local disk, dirty throttling — plus an
//     "other" residual, with the invariant that the buckets sum
//     exactly to the span duration in virtual time.
//
//   - Per-tenant interference matrix (Interference): each wait on a
//     held resource becomes a victim×aggressor cell. The aggressor is
//     the tenant the holder was serving when it held the resource, so
//     a kernel flusher squatting on i_mutex mid-writeback blames the
//     pool whose dirty data recruited it, and flusher core theft shows
//     up as runqueue cells against the kernel account.
//
//   - What-if profiling (WhatIf): a parameterized virtual speedup
//     (NIC 2x, lock critical sections halved, flushers pinned off pool
//     cores) is both predicted from the baseline decomposition and
//     measured by deterministically re-running the scenario with the
//     modified cost model, per tenant.
//
// Everything here is a pure function of a finished recording: outputs
// are deterministic (sorted, virtual-time) and byte-identical across
// identical runs.
package blame

import (
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Bucket names used by the decomposition, beyond the dynamic
// "lock:<name>" and "wait:<name>" families.
const (
	BucketCPURun   = "cpu-run"
	BucketRunqueue = "runqueue-wait"
	BucketIPCQueue = "ipc-queue"
	BucketNet      = "net"
	BucketOSD      = "osd"
	BucketMDS      = "mds"
	BucketDisk     = "disk"
	BucketThrottle = "dirty-throttle"
	BucketOther    = "other"
)

// bucketOf classifies one wait record into its decomposition bucket.
// Lock waits fold into the service bucket of the resource the lock
// guards (an IPC dispatch queue, the MDS CPU, OSD media, a NIC
// transmit channel); all remaining locks keep their own
// "lock:<name>" bucket so i_mutex/lru_lock blame stays visible.
func bucketOf(kind, resource string) string {
	switch kind {
	case "run":
		return BucketCPURun
	case "runq":
		return BucketRunqueue
	case "net":
		return BucketNet
	case "osd":
		return BucketOSD
	case "mds":
		return BucketMDS
	case "disk":
		return BucketDisk
	case "waitq":
		if strings.Contains(resource, "throttle") {
			return BucketThrottle
		}
		return "wait:" + resource
	case "lock":
		switch {
		case strings.HasSuffix(resource, ".q"):
			return BucketIPCQueue
		case resource == "mds.cpu":
			return BucketMDS
		case resource == "osd.media":
			return BucketOSD
		case strings.HasSuffix(resource, ".xmit"):
			return BucketNet
		case strings.HasSuffix(resource, ".chan"):
			return BucketDisk
		default:
			return "lock:" + resource
		}
	}
	return "wait:" + kind
}

// Bucket is one exclusive latency component of a request or aggregate.
type Bucket struct {
	Name string        `json:"name"`
	Dur  time.Duration `json:"dur_ns"`
}

// Request is the decomposition of one traced request: Buckets sum
// exactly to Dur (the residual is the "other" bucket).
type Request struct {
	Span     uint64        `json:"span"`
	Tenant   string        `json:"tenant"`
	Op       string        `json:"op"`
	Start    time.Duration `json:"start_ns"`
	Dur      time.Duration `json:"dur_ns"`
	Err      bool          `json:"err,omitempty"`
	CacheHit bool          `json:"cache_hit,omitempty"`
	Buckets  []Bucket      `json:"buckets"`
}

// OpBlame aggregates the decomposition over one tenant's operation.
type OpBlame struct {
	Op       string        `json:"op"`
	Requests int           `json:"requests"`
	Total    time.Duration `json:"total_ns"`
	Buckets  []Bucket      `json:"buckets"`
}

// TenantBlame aggregates the decomposition over one tenant.
type TenantBlame struct {
	Tenant    string        `json:"tenant"`
	Requests  int           `json:"requests"`
	CacheHits int           `json:"cache_hits"`
	Errors    int           `json:"errors"`
	Total     time.Duration `json:"total_ns"`
	Buckets   []Bucket      `json:"buckets"`
	Ops       []OpBlame     `json:"ops"`
}

// Report is the blame analysis of one recorded run. PerRequest holds
// the full decomposition for tests and what-if arithmetic; the
// exported artifacts carry the tenant/op aggregates and the
// interference matrix.
type Report struct {
	Label        string `json:"label"`
	Requests     int    `json:"requests"`
	Unattributed uint64 `json:"unattributed_waits,omitempty"`
	// Dropped counts the events the recorder discarded at its
	// MaxEvents cap: when nonzero, the report decomposes only the
	// requests whose events came before the cap.
	Dropped      uint64        `json:"dropped_events,omitempty"`
	Tenants      []TenantBlame `json:"tenants"`
	Interference []Cell        `json:"interference"`
	PerRequest   []Request     `json:"-"`
}

// sortedBuckets renders a bucket map deterministically (by name).
func sortedBuckets(m map[string]time.Duration) []Bucket {
	out := make([]Bucket, 0, len(m))
	for n, d := range m {
		out = append(out, Bucket{Name: n, Dur: d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// BucketDur returns the duration of the named bucket in bs (0 when
// absent).
func BucketDur(bs []Bucket, name string) time.Duration {
	for _, b := range bs {
		if b.Name == name {
			return b.Dur
		}
	}
	return 0
}

// Decompose runs the critical-path decomposition over a finished
// recording: every span that emitted a root request slice is split
// into exclusive buckets from the wait records attributed to it, with
// the unexplained remainder in "other". Because a simulated process is
// either running or blocked on exactly one primitive, the leaf wait
// intervals of a span never overlap, so sum(buckets) == span duration
// holds exactly in virtual time (the residual is never negative; the
// test suite enforces this for every traced request).
func Decompose(label string, rec *obs.Recorder) Report {
	rep := Report{Label: label}
	if rec == nil {
		return rep
	}
	rep.Unattributed = rec.UnattributedWaits()
	rep.Dropped = rec.Dropped()
	// Wait records grouped by owning span, preserving engine order.
	type leaf struct {
		bucket string
		dur    time.Duration
	}
	bySpan := map[uint64][]leaf{}
	for _, w := range rec.Waits() {
		bySpan[w.Span] = append(bySpan[w.Span], leaf{
			bucket: bucketOf(rec.Str(w.Kind), rec.Str(w.Resource)),
			dur:    w.Dur,
		})
	}

	reqLayer := string(obs.LayerRequest)
	for _, s := range rec.Slices() {
		if rec.Str(s.Layer) != reqLayer {
			continue
		}
		buckets := map[string]time.Duration{}
		var explained time.Duration
		for _, l := range bySpan[s.Span] {
			buckets[l.bucket] += l.dur
			explained += l.dur
		}
		if resid := s.Dur - explained; resid != 0 {
			buckets[BucketOther] += resid
		}
		r := Request{
			Span: s.Span, Tenant: rec.Str(s.Tenant), Op: rec.Str(s.Op),
			Start: s.Start, Dur: s.Dur, Err: s.Err,
			Buckets: sortedBuckets(buckets),
		}
		r.CacheHit = buckets[BucketNet] == 0 && buckets[BucketOSD] == 0 &&
			buckets[BucketMDS] == 0 && buckets[BucketDisk] == 0
		rep.PerRequest = append(rep.PerRequest, r)
	}
	rep.Requests = len(rep.PerRequest)
	rep.Tenants = aggregate(rep.PerRequest)
	return rep
}

// aggregate folds per-request decompositions into sorted per-tenant
// (and per-tenant-op) totals.
func aggregate(reqs []Request) []TenantBlame {
	type opKey struct{ tenant, op string }
	tb := map[string]*TenantBlame{}
	tbBuckets := map[string]map[string]time.Duration{}
	ob := map[opKey]*OpBlame{}
	obBuckets := map[opKey]map[string]time.Duration{}
	for _, r := range reqs {
		t := tb[r.Tenant]
		if t == nil {
			t = &TenantBlame{Tenant: r.Tenant}
			tb[r.Tenant] = t
			tbBuckets[r.Tenant] = map[string]time.Duration{}
		}
		t.Requests++
		t.Total += r.Dur
		if r.CacheHit {
			t.CacheHits++
		}
		if r.Err {
			t.Errors++
		}
		for _, b := range r.Buckets {
			tbBuckets[r.Tenant][b.Name] += b.Dur
		}
		k := opKey{r.Tenant, r.Op}
		o := ob[k]
		if o == nil {
			o = &OpBlame{Op: r.Op}
			ob[k] = o
			obBuckets[k] = map[string]time.Duration{}
		}
		o.Requests++
		o.Total += r.Dur
		for _, b := range r.Buckets {
			obBuckets[k][b.Name] += b.Dur
		}
	}
	names := make([]string, 0, len(tb))
	for n := range tb {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TenantBlame, 0, len(names))
	for _, n := range names {
		t := tb[n]
		t.Buckets = sortedBuckets(tbBuckets[n])
		for k, o := range ob {
			if k.tenant == n {
				o.Buckets = sortedBuckets(obBuckets[k])
				t.Ops = append(t.Ops, *o)
			}
		}
		sort.Slice(t.Ops, func(i, j int) bool { return t.Ops[i].Op < t.Ops[j].Op })
		out = append(out, *t)
	}
	return out
}

// Analyze runs the full blame pass over one recording: decomposition
// plus the interference matrix, in one Report.
func Analyze(label string, rec *obs.Recorder) Report {
	rep := Decompose(label, rec)
	rep.Interference = Interference(rec)
	return rep
}
