// Package faults is the deterministic fault injector of the testbed:
// it schedules fault windows — OSD crashes and degraded media, network
// latency spikes, packet loss and partitions, MDS stalls — as events
// on the simulation engine, so faults arm and disarm at exact virtual
// times and two runs of the same schedule produce identical traces.
//
// A schedule is a Plan of Windows, either built programmatically or
// parsed from the compact text form accepted by Parse:
//
//	osd-crash:<osd>:<start>-<end>
//	osd-degrade:<osd>:<factor>x:<start>-<end>
//	net-spike:<client|osd>:<extra>:<start>-<end>
//	net-drop:<osd>:<every>:<start>-<end>
//	net-partition:<osd>:<start>-<end>
//	mds-stall:<start>-<end>
//	danaus-crash:<tenant>:<start>-<end>
//	fuse-crash:<tenant>:<start>-<end>
//	host-crash:<start>-<end>
//
// entries separated by ';', durations in Go syntax (e.g. "500ms").
// The three client crash kinds kill a client-side component at Start
// and restart it at End: danaus-crash a single tenant's user-level
// library service, fuse-crash a FUSE daemon (taking down every tenant
// mounted through it), host-crash the shared kernel client (every
// tenant on the host). They require a CrashTargets resolver in Install
// because the affected components live above the cluster.
// Packet loss and partitions target OSD links only: the metadata path
// may stall but never loses messages, which keeps non-idempotent
// metadata operations (create, rename) exactly-once without a
// transaction layer.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// Kind enumerates the injectable fault types.
type Kind int

// Fault kinds.
const (
	// OSDCrash takes an OSD down at Start and restarts it (with
	// backfill recovery) at End.
	OSDCrash Kind = iota
	// OSDDegrade multiplies the OSD's media time by Factor.
	OSDDegrade
	// NetLatency adds Extra latency to the target NIC (OSD, or the
	// client host NIC when OSD is -1).
	NetLatency
	// NetDrop drops every DropEvery-th message on the target OSD's NIC.
	NetDrop
	// NetPartition makes the target OSD's NIC unreachable.
	NetPartition
	// MDSStall freezes metadata processing.
	MDSStall
	// DanausCrash kills one tenant's user-level library service at
	// Start and restarts it (cold cache, MDS session reclaim) at End.
	DanausCrash
	// FUSECrash kills a FUSE daemon — and with it every tenant mounted
	// through that daemon — at Start, restarting it at End.
	FUSECrash
	// HostCrash kills the shared kernel client: every tenant on the
	// host loses its kernel mounts until the restart at End.
	HostCrash
)

var kindNames = map[Kind]string{
	OSDCrash:     "osd-crash",
	OSDDegrade:   "osd-degrade",
	NetLatency:   "net-spike",
	NetDrop:      "net-drop",
	NetPartition: "net-partition",
	MDSStall:     "mds-stall",
	DanausCrash:  "danaus-crash",
	FUSECrash:    "fuse-crash",
	HostCrash:    "host-crash",
}

// ClientCrash reports whether the kind is one of the client-side crash
// faults, which need crash targets rather than cluster state to apply.
func (k Kind) ClientCrash() bool {
	return k == DanausCrash || k == FUSECrash || k == HostCrash
}

// String returns the schedule-syntax name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ClientNIC is the OSD field value targeting the client host NIC
// (valid for NetLatency windows only).
const ClientNIC = -1

// MaxDegradeFactor is the largest media slowdown Parse accepts: an OSD
// a million times slower than its ramdisk still serves a 1 MiB write
// within simulated minutes, and the product stays within int64.
const MaxDegradeFactor = 1e6

// MaxSpikeLatency is the largest extra one-way latency Parse accepts
// for a net-spike window.
const MaxSpikeLatency = time.Minute

// Window is one fault armed at Start and disarmed at End (both
// relative to the offset given to Install).
type Window struct {
	Kind       Kind
	Start, End time.Duration
	// OSD is the target OSD index; ClientNIC targets the client host
	// NIC (NetLatency only). Ignored for MDSStall.
	OSD int
	// Factor is the media slowdown for OSDDegrade windows.
	Factor float64
	// Extra is the added one-way latency for NetLatency windows.
	Extra time.Duration
	// DropEvery is the loss period for NetDrop windows (every Nth
	// message on the link is lost).
	DropEvery uint64
	// Tenant names the crashed pool for DanausCrash and FUSECrash
	// windows. Empty (and ignored) for every other kind — HostCrash
	// takes the whole host down, so it has no per-tenant target.
	Tenant string
}

func (w Window) String() string {
	target := ""
	switch {
	case w.Kind == MDSStall || w.Kind == HostCrash:
	case w.Kind == DanausCrash || w.Kind == FUSECrash:
		target = ":" + w.Tenant
	case w.OSD == ClientNIC:
		target = ":client"
	default:
		target = fmt.Sprintf(":%d", w.OSD)
	}
	extra := ""
	switch w.Kind {
	case OSDDegrade:
		extra = fmt.Sprintf(":%gx", w.Factor)
	case NetLatency:
		extra = fmt.Sprintf(":%v", w.Extra)
	case NetDrop:
		extra = fmt.Sprintf(":%d", w.DropEvery)
	}
	return fmt.Sprintf("%v%s%s:%v-%v", w.Kind, target, extra, w.Start, w.End)
}

// Plan is a full fault schedule.
type Plan struct {
	Windows []Window
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool { return len(p.Windows) == 0 }

// String renders the plan in Parse syntax.
func (p Plan) String() string {
	parts := make([]string, len(p.Windows))
	for i, w := range p.Windows {
		parts[i] = w.String()
	}
	return strings.Join(parts, ";")
}

// Validate checks the plan against nOSDs object servers: windows must
// have positive length, targets must exist, drop/partition windows must
// target OSD links, and windows of the same kind on the same target
// must not overlap (a disarm would otherwise cancel a sibling window
// still in force).
func (p Plan) Validate(nOSDs int) error {
	for i, w := range p.Windows {
		if w.End <= w.Start || w.Start < 0 {
			return fmt.Errorf("faults: window %d (%v): bad interval", i, w)
		}
		switch w.Kind {
		case OSDCrash, OSDDegrade, NetDrop, NetPartition:
			if w.OSD < 0 || w.OSD >= nOSDs {
				return fmt.Errorf("faults: window %d (%v): no such osd", i, w)
			}
		case NetLatency:
			if w.OSD != ClientNIC && (w.OSD < 0 || w.OSD >= nOSDs) {
				return fmt.Errorf("faults: window %d (%v): no such target", i, w)
			}
		case MDSStall, HostCrash:
		case DanausCrash, FUSECrash:
			if w.Tenant == "" {
				return fmt.Errorf("faults: window %d (%v): missing tenant", i, w)
			}
		default:
			return fmt.Errorf("faults: window %d: unknown kind %d", i, int(w.Kind))
		}
		if w.Kind == OSDDegrade && w.Factor < 1 {
			return fmt.Errorf("faults: window %d (%v): factor < 1", i, w)
		}
		if w.Kind == NetDrop && w.DropEvery == 0 {
			return fmt.Errorf("faults: window %d (%v): drop period 0", i, w)
		}
		for j := 0; j < i; j++ {
			o := p.Windows[j]
			if o.Kind == w.Kind && o.OSD == w.OSD && o.Tenant == w.Tenant &&
				w.Start < o.End && o.Start < w.End {
				return fmt.Errorf("faults: windows %d and %d overlap on the same target", j, i)
			}
		}
	}
	return nil
}

// Event records one arm or disarm performed by the injector, for
// determinism assertions: two runs of the same schedule must produce
// identical event logs.
type Event struct {
	At     time.Duration // virtual time of the transition
	Window Window
	Armed  bool // true = armed, false = disarmed
}

// CrashTarget is one crashable client-side component (a tenant's
// user-level client, a FUSE daemon plus its client, or the kernel
// client of the whole host). Crash kills it — dropping un-synced dirty
// state and failing in-flight and future operations deterministically —
// and Restart brings it back cold and runs its recovery protocol.
type CrashTarget interface {
	Crash()
	Restart()
}

// CrashTargets resolves a crash window to the component it kills. The
// tenant argument is empty for HostCrash. Implemented by the testbed
// (core.Testbed.CrashTargets), which knows which pools exist and how
// their clients are stacked.
type CrashTargets interface {
	CrashTarget(kind Kind, tenant string) (CrashTarget, error)
}

// Injector is an installed plan: it holds the scheduled transitions
// and logs each one as it fires.
type Injector struct {
	clus   *cluster.Cluster
	events []Event
}

// Install schedules every window of the plan against the engine, with
// window times interpreted relative to offset (an absolute virtual
// time, typically the start of an experiment's measurement window).
// The plan is validated first; an empty plan installs nothing and
// perturbs nothing. targets resolves the client crash kinds; they are
// resolved at install time, so a schedule naming an unknown tenant
// fails immediately rather than mid-run. A nil resolver rejects plans
// containing crash windows.
func Install(eng *sim.Engine, clus *cluster.Cluster, targets CrashTargets, plan Plan, offset time.Duration) (*Injector, error) {
	if err := plan.Validate(len(clus.OSDs())); err != nil {
		return nil, err
	}
	in := &Injector{clus: clus}
	now := eng.Now()
	for i, w := range plan.Windows {
		if w.Kind.ClientCrash() {
			if targets == nil {
				return nil, fmt.Errorf("faults: window %d (%v): client crash needs crash targets", i, w)
			}
			tgt, err := targets.CrashTarget(w.Kind, w.Tenant)
			if err != nil {
				return nil, fmt.Errorf("faults: window %d (%v): %w", i, w, err)
			}
			eng.After(offset+w.Start-now, func() { in.applyCrash(eng, w, tgt, true) })
			eng.After(offset+w.End-now, func() { in.applyCrash(eng, w, tgt, false) })
			continue
		}
		eng.After(offset+w.Start-now, func() { in.apply(eng, w, true) })
		eng.After(offset+w.End-now, func() { in.apply(eng, w, false) })
	}
	return in, nil
}

// applyCrash fires one crash or restart transition on a resolved
// client-side target.
func (in *Injector) applyCrash(eng *sim.Engine, w Window, tgt CrashTarget, arm bool) {
	in.events = append(in.events, Event{At: eng.Now(), Window: w, Armed: arm})
	if arm {
		tgt.Crash()
	} else {
		tgt.Restart()
	}
}

// Log returns the transitions performed so far, in firing order.
func (in *Injector) Log() []Event { return in.events }

func (in *Injector) apply(eng *sim.Engine, w Window, arm bool) {
	in.events = append(in.events, Event{At: eng.Now(), Window: w, Armed: arm})
	fab := in.clus.Fabric()
	switch w.Kind {
	case OSDCrash:
		if arm {
			in.clus.OSDs()[w.OSD].Crash()
		} else {
			in.clus.OSDs()[w.OSD].Restart()
		}
	case OSDDegrade:
		f := w.Factor
		if !arm {
			f = 1
		}
		in.clus.OSDs()[w.OSD].SetDegraded(f)
	case NetLatency:
		d := w.Extra
		if !arm {
			d = 0
		}
		if w.OSD == ClientNIC {
			fab.Client.SetExtraLatency(d)
		} else {
			fab.Servers[w.OSD].SetExtraLatency(d)
		}
	case NetDrop:
		var every uint64
		if arm {
			every = w.DropEvery
		}
		fab.Servers[w.OSD].SetDropEvery(every)
	case NetPartition:
		fab.Servers[w.OSD].SetPartitioned(arm)
	case MDSStall:
		in.clus.SetMDSStalled(arm)
	}
}

// Parse reads the compact schedule syntax documented on the package.
// An empty string parses to an empty plan.
func Parse(s string) (Plan, error) {
	var p Plan
	for _, entry := range strings.Split(s, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		w, err := parseWindow(entry)
		if err != nil {
			return Plan{}, err
		}
		p.Windows = append(p.Windows, w)
	}
	return p, nil
}

func parseWindow(entry string) (Window, error) {
	bad := func(why string) (Window, error) {
		return Window{}, fmt.Errorf("faults: bad entry %q: %s", entry, why)
	}
	fields := strings.Split(entry, ":")
	var w Window
	switch fields[0] {
	case "osd-crash":
		w.Kind = OSDCrash
	case "osd-degrade":
		w.Kind = OSDDegrade
	case "net-spike":
		w.Kind = NetLatency
	case "net-drop":
		w.Kind = NetDrop
	case "net-partition":
		w.Kind = NetPartition
	case "mds-stall":
		w.Kind = MDSStall
	case "danaus-crash":
		w.Kind = DanausCrash
	case "fuse-crash":
		w.Kind = FUSECrash
	case "host-crash":
		w.Kind = HostCrash
	default:
		return bad("unknown fault kind")
	}
	want := map[Kind]int{
		OSDCrash: 3, OSDDegrade: 4, NetLatency: 4,
		NetDrop: 4, NetPartition: 3, MDSStall: 2,
		DanausCrash: 3, FUSECrash: 3, HostCrash: 2,
	}[w.Kind]
	if len(fields) != want {
		return bad(fmt.Sprintf("want %d fields, got %d", want, len(fields)))
	}
	arg := 1
	switch {
	case w.Kind == MDSStall || w.Kind == HostCrash:
	case w.Kind == DanausCrash || w.Kind == FUSECrash:
		tenant := fields[arg]
		if tenant == "" || strings.ContainsAny(tenant, ";- ") {
			return bad("bad tenant id")
		}
		w.Tenant = tenant
		arg++
	default:
		if w.Kind == NetLatency && fields[arg] == "client" {
			w.OSD = ClientNIC
		} else {
			osd, err := strconv.Atoi(fields[arg])
			if err != nil || osd < 0 {
				return bad("bad osd index")
			}
			w.OSD = osd
		}
		arg++
	}
	switch w.Kind {
	case OSDDegrade:
		f, err := strconv.ParseFloat(strings.TrimSuffix(fields[arg], "x"), 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return bad("bad degrade factor")
		}
		if f > MaxDegradeFactor {
			return bad(fmt.Sprintf("bad degrade factor: %g above the maximum %g", f, float64(MaxDegradeFactor)))
		}
		w.Factor = f
		arg++
	case NetLatency:
		d, err := time.ParseDuration(fields[arg])
		if err != nil {
			return bad("bad latency")
		}
		if d < 0 || d > MaxSpikeLatency {
			return bad(fmt.Sprintf("bad latency: %v outside 0 to %v", d, MaxSpikeLatency))
		}
		w.Extra = d
		arg++
	case NetDrop:
		n, err := strconv.ParseUint(fields[arg], 10, 64)
		if err != nil {
			return bad("bad drop period")
		}
		w.DropEvery = n
		arg++
	}
	span := strings.SplitN(fields[arg], "-", 2)
	if len(span) != 2 {
		return bad("bad window, want start-end")
	}
	start, err := time.ParseDuration(span[0])
	if err != nil {
		return bad("bad window start")
	}
	end, err := time.ParseDuration(span[1])
	if err != nil {
		return bad("bad window end")
	}
	w.Start, w.End = start, end
	return w, nil
}
