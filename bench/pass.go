package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Child kinds: each child process runs one pass over a workload's
// cases, in one of three ways.
const (
	childPlain   = "plain"   // untraced
	childProfile = "profile" // under a CPU profile and an engine tracer
	childObs     = "obs"     // with an obs.Recorder on every testbed
)

// namedCase is a case result labelled with its case name.
type namedCase struct {
	Name   string `json:"name"`
	Family string `json:"family"`
	caseResult
}

// pass is one run over every case of a workload, in its own process.
type pass struct {
	Cases      []namedCase   `json:"cases"`
	AllocBytes uint64        `json:"alloc_bytes"` // runtime TotalAlloc growth
	CPU        time.Duration `json:"cpu_ns"`      // process user+system time
	GCCycles   uint32        `json:"gc_cycles"`
	// Probe holds the probe job's timings the benchmark took while the
	// pass's process ran.
	Probe []probeSample `json:"-"`
}

func (p pass) ops() (ops, errors uint64) {
	for _, c := range p.Cases {
		ops += c.Digest.Ops
		errors += c.Digest.Errors
	}
	return ops, errors
}

// probeRef defines the reference host: one that runs the probe job in
// 250 µs.
const probeRef = 250 * time.Microsecond

// simExponent relates the simulator's speed to the probe's: when the
// probe job runs x times slower, the simulator runs x^simExponent times
// slower. Over 84 passes of seqwrite, kvget-scaleup and
// fileserver-observed, during which the host's speed varied 1.7-fold,
// the exponent that left the least spread in pass times was 1.2 to 1.3
// on each workload (README.md).
const simExponent = 1.25

// speed is the simulator's speed relative to the reference host's, as
// probe sample s shows it.
func (s probeSample) speed() float64 {
	return math.Pow(float64(probeRef)/float64(s.Took), simExponent)
}

// ref converts the host time of case c from offset from to offset to
// into reference seconds: the time the reference host would have taken.
// The host's speed over that stretch is the mean speed of the probe
// jobs that started in it, or of the one that started nearest to its
// middle when none did. Without probe samples the time is left as
// measured.
func (p pass) ref(c caseResult, from, to time.Duration) float64 {
	d := (to - from).Seconds()
	if len(p.Probe) == 0 {
		return d
	}
	a, b := c.Start+int64(from), c.Start+int64(to)
	var speed float64
	n := 0
	for _, s := range p.Probe {
		if s.At >= a && s.At < b {
			speed += s.speed()
			n++
		}
	}
	if n == 0 {
		mid := (a + b) / 2
		near := p.Probe[0]
		for _, s := range p.Probe {
			if abs(s.At-mid) < abs(near.At-mid) {
				near = s
			}
		}
		speed, n = near.speed(), 1
	}
	return d * speed / float64(n)
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// engineCounts tallies what the engine processed, from its tracer.
type engineCounts struct {
	Callbacks    uint64 `json:"callbacks"`
	Resumes      uint64 `json:"resumes"`
	ProcSwitches uint64 `json:"proc_switches"`
	Procs        uint64 `json:"procs"`
	lastProc     int
}

func (e *engineCounts) observe(ev sim.TraceEvent) {
	switch ev.Kind {
	case sim.TraceCallback:
		e.Callbacks++
	case sim.TraceResume:
		e.Resumes++
		if ev.ProcID != e.lastProc {
			e.ProcSwitches++
			e.lastProc = ev.ProcID
		}
		// Process ids are assigned in spawn order from 1, so the
		// largest seen is the number of processes the engine started.
		e.Procs = max(e.Procs, uint64(ev.ProcID))
	}
}

func (e engineCounts) events() uint64 { return e.Callbacks + e.Resumes }

func (e *engineCounts) add(o engineCounts) {
	e.Callbacks += o.Callbacks
	e.Resumes += o.Resumes
	e.ProcSwitches += o.ProcSwitches
	e.Procs += o.Procs
}

// report is what a child process prints: its pass and the counters of
// its kind.
type report struct {
	Pass    pass               `json:"pass"`
	Engine  engineCounts       `json:"engine"`
	Profile string             `json:"profile,omitempty"` // CPU profile file
	Stack   map[string]float64 `json:"stack,omitempty"`   // obs metrics
}

// runPass runs every case of w once. With counts set, each case gets an
// engine tracer and its digest records the case's event count.
func runPass(w *workload, seed int64, counts *engineCounts, observe func(*obs.Recorder)) pass {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, gc0, cpu0 := ms.TotalAlloc, ms.NumGC, cpuTime()
	var p pass
	for _, c := range w.Cases {
		// Each case starts on an empty heap, holding no memory the
		// previous case left, so that its peak resident set is its own.
		debug.FreeOSMemory()
		resetMaxRSS()
		h := hooks{observe: observe}
		var cc engineCounts
		if counts != nil {
			h.tracer = cc.observe
		}
		r := w.run(c, seed, h)
		r.MaxRSSKiB = maxRSSKiB()
		if counts != nil {
			r.Digest.Events = cc.events()
			counts.add(cc)
		}
		p.Cases = append(p.Cases, namedCase{Name: c.name(), Family: c.family(), caseResult: r})
	}
	runtime.ReadMemStats(&ms)
	p.AllocBytes, p.GCCycles, p.CPU = ms.TotalAlloc-alloc0, ms.NumGC-gc0, cpuTime()-cpu0
	return p
}

// runChild runs one pass of w in the way kind names and writes the
// report to out as JSON.
func runChild(kind string, w *workload, seed int64, out io.Writer) error {
	// The engine runs one goroutine at a time. With more than one P,
	// each handoff may wake an idle P that steals the resumed goroutine;
	// on a 2-core host that made seqread passes 44% slower and their
	// run-to-run spread seven times wider (0.22 against 0.03 of the
	// median), too wide to judge a change by. One P keeps every handoff
	// on one thread.
	runtime.GOMAXPROCS(1)
	var rep report
	switch kind {
	case childPlain:
		rep.Pass = runPass(w, seed, nil, nil)
	case childProfile:
		f, err := os.CreateTemp("", "bench-cpu-*.pprof")
		if err != nil {
			return err
		}
		rep.Profile = f.Name()
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		rep.Pass = runPass(w, seed, &rep.Engine, nil)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
	case childObs:
		st := newStackTally()
		rep.Pass = runPass(w, seed, nil, st.add)
		rep.Stack = st.metrics()
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	return json.NewEncoder(out).Encode(rep)
}

// probeSample is one timing of the probe job: when it started (Unix ns)
// and how long it took.
type probeSample struct {
	At   int64
	Took time.Duration
}

// probePeriod is the pause between two probe jobs.
const probePeriod = 10 * time.Millisecond

// probeJob times a fixed job made of the operation that takes most of
// the simulator's host time, a goroutine handoff over an unbuffered
// channel: 500 round trips. The job calls no simulator code and
// allocates nothing.
func probeJob() probeSample {
	ping, pong := make(chan int), make(chan int)
	done := make(chan struct{})
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(done)
	}()
	start := time.Now()
	v := 0
	for i := 0; i < 500; i++ {
		ping <- v
		v = <-pong
	}
	s := probeSample{At: start.UnixNano(), Took: time.Since(start)}
	close(ping)
	<-done
	return s
}

// probe runs the probe job every probePeriod until stop is closed and
// then sends its samples on out. It runs in the benchmark's own process,
// beside the child that measures a pass, so the child's heap, collector
// and goroutines never reach it: it samples only how fast the host runs
// at each moment of the pass. pinToOneCPU puts both on the same CPU.
//
// A job that takes more than twice the median was descheduled part way:
// it timed the scheduler, not the CPU, and is dropped. Such jobs are a
// few percent of the samples, but they took 3 to 6 ms against a median
// of 0.4 ms, so keeping them moved a measured phase's speed by several
// percent.
func probe(stop <-chan struct{}, out chan<- []probeSample) {
	var samples []probeSample
	t := time.NewTicker(probePeriod)
	defer t.Stop()
	for {
		samples = append(samples, probeJob())
		select {
		case <-stop:
			out <- dropStalls(samples)
			return
		case <-t.C:
		}
	}
}

// dropStalls returns the samples that took at most twice the median.
func dropStalls(samples []probeSample) []probeSample {
	took := make([]float64, len(samples))
	for i, s := range samples {
		took[i] = float64(s.Took)
	}
	limit := 2 * median(took)
	var kept []probeSample
	for _, s := range samples {
		if float64(s.Took) <= limit {
			kept = append(kept, s)
		}
	}
	return kept
}

// pinToOneCPU binds every thread of this process, and so every process
// it starts, to the highest-numbered CPU it may run on, and leaves the
// process one P. On a shared host each CPU's speed drifts on its own: a
// probe on the other CPU of a 2-core host did not follow the speed of
// the child's (README.md), one on the same CPU does.
func pinToOneCPU() error {
	var mask [16]uint64 // 1024 CPUs
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0 && cpu < 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	mask = [16]uint64{}
	mask[cpu/64] = 1 << (cpu % 64)
	// A thread starts with the CPUs of the thread that made it, so once
	// a listing of the threads finds no new one, every thread is bound.
	pinned := map[string]bool{}
	for {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		fresh := false
		for _, t := range tasks {
			if pinned[t.Name()] {
				continue
			}
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				return err
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
			pinned[t.Name()], fresh = true, true
		}
		if !fresh {
			break
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSKiB is the process's peak resident set size in KiB (Linux
// reports ru_maxrss in KiB) since the last resetMaxRSS.
func maxRSSKiB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// resetMaxRSS sets the process's peak resident set to its current one
// (Linux 4.0 and later), so that each case's peak is its own.
func resetMaxRSS() {
	must(os.WriteFile("/proc/self/clear_refs", []byte("5"), 0))
}

// Layers and wait kinds the obs pass reports; the span vocabulary of
// OBSERVABILITY.md without the zero-length "event" marks, and the wait
// kinds a request blocks on.
var (
	stackLayers = []obs.Layer{
		obs.LayerRequest, obs.LayerIPC, obs.LayerFUSE, obs.LayerUnion, obs.LayerClient,
		obs.LayerSyscall, obs.LayerWriteback, obs.LayerMDS, obs.LayerOSD, obs.LayerNet,
	}
	waitKinds = []string{"lock", "runq", "net", "osd", "mds", "disk", "waitq"}
)

// stackTally sums recorded spans and waits over the cases of a pass.
type stackTally struct {
	spans map[string]uint64
	span  map[string]time.Duration
	wait  map[string]time.Duration
}

func newStackTally() *stackTally {
	return &stackTally{spans: map[string]uint64{}, span: map[string]time.Duration{}, wait: map[string]time.Duration{}}
}

func (t *stackTally) add(rec *obs.Recorder) {
	for _, s := range rec.Slices() {
		l := rec.Str(s.Layer)
		t.spans[l]++
		t.span[l] += s.Dur
	}
	for _, w := range rec.Waits() {
		t.wait[rec.Str(w.Kind)] += w.Dur
	}
}

func (t *stackTally) metrics() map[string]float64 {
	m := map[string]float64{}
	for _, l := range stackLayers {
		m["stack."+string(l)+".spans"] = float64(t.spans[string(l)])
		m["stack."+string(l)+".sim_s"] = t.span[string(l)].Seconds()
	}
	for _, k := range waitKinds {
		m["wait."+k+".sim_s"] = t.wait[k].Seconds()
	}
	return m
}
