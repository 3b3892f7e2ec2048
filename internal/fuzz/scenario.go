package fuzz

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faults"
)

// Tenant is one co-located workload instance sharing the testbed with
// the victim probe, in its own 2-core pool.
type Tenant struct {
	// Workload names the generator: "fileserver", "webserver", "kvput"
	// (cluster-backed, own container) or "randio" (local ext4, the
	// paper's noisy neighbour).
	Workload string
	// Threads is the worker count of the instance.
	Threads int
}

// Scenario is one randomly composed but fully deterministic testbed
// run: a Table 1 client configuration, replication and cache sizing, a
// scale, a fault schedule, and a workload mix. Every field is
// serializable (WriteSpec/ParseSpec round-trip), so a failing scenario
// is a replayable artifact.
type Scenario struct {
	// ID is the scenario's index in its sweep (0 for hand-built ones).
	ID int
	// Seed drives every workload RNG stream of the run.
	Seed int64
	// Config is the client system composition under test.
	Config core.Configuration
	// Replication is the cluster's object replication level.
	Replication int
	// SharedMount clones the victim container over the victim's client
	// (or kernel mount), the paper's scaleup sharing mode.
	SharedMount bool
	// Factor scales dataset sizes and pool memory (experiments.Scale).
	Factor float64
	// CacheFrac sizes the user-level client cache as PoolMem/CacheFrac
	// (0 = the default half).
	CacheFrac int
	// Warmup precedes the measurement window.
	Warmup time.Duration
	// Duration is the measurement window; fault windows land inside it.
	Duration time.Duration
	// Schedule is a faults.Parse schedule relative to the window start;
	// the token "@wal" resolves to the OSD holding the victim WAL's
	// first object.
	Schedule string
	// Tenants are the co-located workloads (the victim probe always
	// runs; an empty list is a solo scenario).
	Tenants []Tenant
	// OfferedLoad, when positive, drives an open-loop Poisson aggressor
	// against the victim mount at this many requests per second — the
	// overload dimension.
	OfferedLoad int
	// AdmitQueue, when positive, enables the testbed-wide overload
	// policy with this admission queue cap (bounded queues, circuit
	// breakers, brownout).
	AdmitQueue int
	// Crash, when non-empty, is one client-crash fault entry
	// ("danaus-crash:victim:10ms-20ms", "fuse-crash:...", "host-crash:...")
	// installed alongside Schedule — the crash dimension. The victim's
	// probes reopen their handles after the crash, and the
	// crash-consistency checker verifies the durability contract.
	Crash string
	// TraceReplay records the run's VFS op stream (internal/trace) and
	// replays it twice against clean testbeds — the trace-replay-
	// determinism dimension: both replays must produce byte-identical
	// schedules and preserve the recorded per-stream op sequence.
	TraceReplay bool
	// Telemetry attaches the live telemetry monitor
	// (internal/telemetry) to the run — the telemetry-consistency
	// dimension: the monitor's windowed per-(tenant, op) sums must equal
	// the metrics registry's facade counters at drain, and the windows
	// and alert-ledger artifacts must be byte-identical across the
	// replay.
	Telemetry bool
}

// tenantWorkloads are the generator's workload vocabulary.
var tenantWorkloads = []string{"fileserver", "webserver", "kvput", "randio"}

// genConfigs are the configurations the generator draws from, weighted
// toward the paper's two main contenders.
var genConfigs = []core.Configuration{
	core.ConfigD, core.ConfigD, core.ConfigK, core.ConfigK, core.ConfigF, core.ConfigFP,
}

// pctOf returns p percent of d.
func pctOf(d time.Duration, p int) time.Duration {
	return d * time.Duration(p) / 100
}

// Generate derives scenario `index` of the sweep seeded with baseSeed.
// The same (baseSeed, index) pair always produces the same scenario.
func Generate(baseSeed int64, index int) Scenario {
	r := newRNG(uint64(baseSeed)<<17 ^ uint64(index+1)*0x9e3779b97f4a7c15)
	sc := Scenario{
		ID:          index,
		Seed:        int64(r.next() >> 1),
		Config:      pick(r, genConfigs),
		Replication: pick(r, []int{1, 2, 2, 3}),
		SharedMount: r.chance(1, 4),
		Factor:      pick(r, []float64{0.01, 0.02, 0.03}),
		CacheFrac:   pick(r, []int{2, 3, 4}),
		Warmup:      pick(r, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}),
		Duration:    time.Duration(60+20*r.intn(6)) * time.Millisecond,
	}

	nTenants := pick(r, []int{0, 1, 1, 1, 2, 2})
	for i := 0; i < nTenants; i++ {
		sc.Tenants = append(sc.Tenants, Tenant{
			Workload: pick(r, tenantWorkloads),
			Threads:  1 + r.intn(3),
		})
	}

	// Fault schedule: up to three windows inside the measurement
	// window, each kind at most once so same-kind windows can never
	// overlap on one target (the injector rejects that).
	nWindows := pick(r, []int{0, 0, 1, 1, 2, 2, 3})
	kinds := []int{0, 1, 2, 3, 4, 5}
	var entries []string
	for i := 0; i < nWindows; i++ {
		ki := r.intn(len(kinds))
		kind := kinds[ki]
		kinds = append(kinds[:ki], kinds[ki+1:]...)
		start := pctOf(sc.Duration, 5+r.intn(55))
		end := start + pctOf(sc.Duration, 5+r.intn(30))
		span := fmt.Sprintf("%v-%v", start, end)
		switch kind {
		case 0:
			entries = append(entries, "osd-crash:@wal:"+span)
		case 1:
			entries = append(entries, fmt.Sprintf("osd-degrade:@wal:%dx:%s", pick(r, []int{2, 4, 8}), span))
		case 2:
			target := pick(r, []string{"client", "@wal"})
			extra := pick(r, []time.Duration{200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond})
			entries = append(entries, fmt.Sprintf("net-spike:%s:%v:%s", target, extra, span))
		case 3:
			entries = append(entries, fmt.Sprintf("net-drop:@wal:%d:%s", pick(r, []int{2, 3, 7}), span))
		case 4:
			entries = append(entries, "net-partition:@wal:"+span)
		case 5:
			entries = append(entries, "mds-stall:"+span)
		}
	}
	sc.Schedule = strings.Join(entries, ";")

	// Overload dimension, drawn last so the earlier draws of a given
	// (seed, index) pair keep their historical values: an open-loop
	// aggressor at the victim mount plus the admission policy bounding
	// its queue.
	if r.chance(1, 3) {
		sc.OfferedLoad = pick(r, []int{400, 800, 1600})
		sc.AdmitQueue = pick(r, []int{4, 8, 16})
	}

	// Crash dimension, drawn after overload (again: new draws come last
	// so historical scenarios keep their shape): one client-crash window
	// matched to the architecture under test — the Danaus libservice for
	// D, the FUSE daemon for configurations mounted through one, the
	// whole host for the kernel client.
	if r.chance(1, 4) {
		start := pctOf(sc.Duration, 10+r.intn(40))
		down := pctOf(sc.Duration, 10+r.intn(20))
		span := fmt.Sprintf("%v-%v", start, start+down)
		switch {
		case sc.Config == core.ConfigD:
			sc.Crash = "danaus-crash:victim:" + span
		case sc.Config.UserLevelClient():
			sc.Crash = "fuse-crash:victim:" + span
		default:
			sc.Crash = "host-crash:" + span
		}
	}

	// Trace-replay dimension, again drawn last: record the op stream and
	// make replay determinism an invariant of the scenario.
	sc.TraceReplay = r.chance(1, 3)

	// Telemetry dimension, the newest draw (so every earlier draw of a
	// given (seed, index) pair keeps its historical value): attach the
	// live monitor and make the sum-of-windows == registry-totals
	// identity an invariant of the scenario.
	sc.Telemetry = r.chance(1, 3)
	return sc
}

// ScheduleWindows returns the schedule's entries (empty slice for an
// empty schedule) — the shrinker drops entries without resolving the
// "@wal" placeholder.
func (sc Scenario) ScheduleWindows() []string {
	if sc.Schedule == "" {
		return nil
	}
	return strings.Split(sc.Schedule, ";")
}

// String renders the scenario compactly for sweep output.
func (sc Scenario) String() string {
	tenants := make([]string, len(sc.Tenants))
	for i, t := range sc.Tenants {
		tenants[i] = fmt.Sprintf("%s:%d", t.Workload, t.Threads)
	}
	shared := ""
	if sc.SharedMount {
		shared = " shared"
	}
	overload := ""
	if sc.OfferedLoad > 0 || sc.AdmitQueue > 0 {
		overload = fmt.Sprintf(" ol=%d/q%d", sc.OfferedLoad, sc.AdmitQueue)
	}
	crash := ""
	if sc.Crash != "" {
		crash = " crash=" + sc.Crash
	}
	tr := ""
	if sc.TraceReplay {
		tr = " tracereplay"
	}
	tel := ""
	if sc.Telemetry {
		tel = " telemetry"
	}
	return fmt.Sprintf("cfg=%v r=%d%s cache=1/%d f=%g win=%v+%v tenants=[%s] faults=%d%s%s%s%s",
		sc.Config, sc.Replication, shared, sc.CacheFrac, sc.Factor,
		sc.Warmup, sc.Duration, strings.Join(tenants, " "), len(sc.ScheduleWindows()), overload, crash, tr, tel)
}

// WriteSpec serializes the scenario as a replayable spec file. Comment
// lines describing the violation may be passed through as header.
func WriteSpec(w io.Writer, sc Scenario, header ...string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# danaus fuzz scenario spec v1")
	for _, h := range header {
		fmt.Fprintln(bw, "# "+h)
	}
	fmt.Fprintf(bw, "seed=%d\n", sc.Seed)
	fmt.Fprintf(bw, "config=%v\n", sc.Config)
	fmt.Fprintf(bw, "replication=%d\n", sc.Replication)
	fmt.Fprintf(bw, "sharedmount=%t\n", sc.SharedMount)
	fmt.Fprintf(bw, "factor=%s\n", strconv.FormatFloat(sc.Factor, 'g', -1, 64))
	fmt.Fprintf(bw, "cachefrac=%d\n", sc.CacheFrac)
	fmt.Fprintf(bw, "warmup=%v\n", sc.Warmup)
	fmt.Fprintf(bw, "duration=%v\n", sc.Duration)
	if sc.Schedule != "" {
		fmt.Fprintf(bw, "schedule=%s\n", sc.Schedule)
	}
	if sc.OfferedLoad > 0 {
		fmt.Fprintf(bw, "offeredload=%d\n", sc.OfferedLoad)
	}
	if sc.AdmitQueue > 0 {
		fmt.Fprintf(bw, "admitq=%d\n", sc.AdmitQueue)
	}
	if sc.Crash != "" {
		fmt.Fprintf(bw, "crash=%s\n", sc.Crash)
	}
	if sc.TraceReplay {
		fmt.Fprintln(bw, "tracereplay=true")
	}
	if sc.Telemetry {
		fmt.Fprintln(bw, "telemetry=true")
	}
	for _, t := range sc.Tenants {
		fmt.Fprintf(bw, "tenant=%s:%d\n", t.Workload, t.Threads)
	}
	return bw.Flush()
}

// ParseSpec reads a spec file written by WriteSpec.
func ParseSpec(r io.Reader) (Scenario, error) {
	var sc Scenario
	sn := bufio.NewScanner(r)
	line := 0
	for sn.Scan() {
		line++
		text := strings.TrimSpace(sn.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, val, ok := strings.Cut(text, "=")
		if !ok {
			return sc, fmt.Errorf("fuzz: spec line %d: want key=value, got %q", line, text)
		}
		var err error
		switch key {
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "config":
			sc.Config, err = core.ParseConfiguration(val)
		case "replication":
			sc.Replication, err = strconv.Atoi(val)
		case "sharedmount":
			sc.SharedMount, err = strconv.ParseBool(val)
		case "factor":
			if sc.Factor, err = strconv.ParseFloat(val, 64); err == nil && (math.IsNaN(sc.Factor) || math.IsInf(sc.Factor, 0)) {
				err = errors.New("must be finite")
			}
		case "cachefrac":
			sc.CacheFrac, err = nonNegative(val)
		case "warmup":
			sc.Warmup, err = time.ParseDuration(val)
		case "duration":
			sc.Duration, err = time.ParseDuration(val)
		case "schedule":
			sc.Schedule, err = val, checkFaults(val)
		case "offeredload":
			sc.OfferedLoad, err = nonNegative(val)
		case "admitq":
			sc.AdmitQueue, err = nonNegative(val)
		case "crash":
			sc.Crash, err = val, checkFaults(val)
		case "tracereplay":
			sc.TraceReplay, err = strconv.ParseBool(val)
		case "telemetry":
			sc.Telemetry, err = strconv.ParseBool(val)
		case "tenant":
			name, threads, _ := strings.Cut(val, ":")
			n, terr := strconv.Atoi(threads)
			switch {
			case terr != nil || n <= 0 || n > MaxThreads:
				err = fmt.Errorf("want <workload>:<threads> with 1..%d threads, got %q", MaxThreads, val)
			case !slices.Contains(tenantWorkloads, name):
				err = fmt.Errorf("unknown workload %q", name)
			case len(sc.Tenants) == MaxTenants:
				err = fmt.Errorf("at most %d tenants fit the %d-core host", MaxTenants, cpu.MaxCores)
			}
			sc.Tenants = append(sc.Tenants, Tenant{Workload: name, Threads: n})
		default:
			return sc, fmt.Errorf("fuzz: spec line %d: unknown key %q", line, key)
		}
		if err != nil {
			return sc, fmt.Errorf("fuzz: spec line %d: bad %s: %v", line, key, err)
		}
	}
	if err := sn.Err(); err != nil {
		return sc, err
	}
	if sc.Duration <= 0 {
		return sc, fmt.Errorf("fuzz: spec needs duration > 0")
	}
	if sc.Replication <= 0 {
		sc.Replication = 2
	}
	if sc.Factor <= 0 {
		sc.Factor = 0.02
	}
	if sc.Warmup <= 0 {
		sc.Warmup = 10 * time.Millisecond
	}
	return sc, nil
}

// MaxTenants bounds a scenario's co-tenants, each in a 2-core pool
// beside the victim's on a host of cpu.MaxCores; MaxThreads bounds the
// workers of one.
const MaxTenants, MaxThreads = cpu.MaxCores/2 - 1, 64

// checkFaults parses a schedule or crash entry as a run does, @wal as OSD 0.
func checkFaults(val string) error {
	_, err := faults.Parse(strings.ReplaceAll(val, "@wal", "0"))
	return err
}

// nonNegative parses a count whose zero means unset.
func nonNegative(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err == nil && n < 0 {
		err = errors.New("must not be negative")
	}
	return n, err
}
