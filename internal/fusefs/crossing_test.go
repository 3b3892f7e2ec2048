package fusefs

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// historicalCrossing is the oracle for TestCrossingMatchesHistorical:
// the straight-line crossing that the dispatch continuation replaced.
// The process resumes after the entry chain, parks again while every
// daemon thread is busy, checks for a crash and picks a daemon thread,
// parks once more for the daemon's read chain, runs fn and then the
// reply chain. A non-nil queued counts the crossings that waited for a
// daemon thread.
func historicalCrossing(t *Transport, ctx vfsapi.Ctx, payloadIn, payloadOut int64, fn func(dctx vfsapi.Ctx) error, queued *int) error {
	defer ctx.Span.Enter(obs.LayerFUSE).Exit()
	p := t.params
	if t.crashed {
		ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, p.FUSERequestOverhead), ctx.T.ModeSwitchStep())
		return vfsapi.ErrCrashed
	}
	ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(),
		cpu.Charge(cpu.Kernel, p.FUSERequestOverhead),
		cpu.Charge(cpu.Kernel, p.CopyTime(payloadIn)),
		ctx.T.ContextSwitchStep())
	at := ctx.P.Now()
	t.slots.Acquire(ctx.P)
	defer t.slots.Release()
	if queued != nil && ctx.P.Now() > at {
		*queued++
	}
	if t.crashed {
		return vfsapi.ErrCrashed
	}
	dth := t.daemonThreads[t.next%len(t.daemonThreads)]
	t.next++
	dctx := vfsapi.Ctx{P: ctx.P, T: dth, Span: ctx.Span}
	dth.Chain(ctx.P, dth.ModeSwitchStep(), cpu.Charge(cpu.Kernel, p.CopyTime(payloadIn)))
	err := fn(dctx)
	dth.Chain(ctx.P, cpu.Charge(cpu.Kernel, p.CopyTime(payloadOut)), dth.ModeSwitchStep(),
		ctx.T.ContextSwitchStep(),
		cpu.Step{Kind: cpu.Kernel, D: p.CopyTime(payloadOut), Thread: ctx.T},
		ctx.T.ModeSwitchStep())
	return err
}

// crossServe is how the daemon serves a request.
type crossServe uint8

const (
	serveFn       crossServe = iota // by fnFS, as a metadata operation
	serveRun                        // by a handle's run, which takes the reply
	serveHandBack                   // by a handle's run, which hands control back before its tail
	serveRefuse                     // by a handle that starts no run: its blocking Read
)

// crossRequest is one FUSE request: issued after gap, carrying in and
// out bytes, served as work of daemon CPU then a sleep (an I/O wait)
// then tail, failing if fail is set.
type crossRequest struct {
	gap      time.Duration
	in, out  int64
	work     time.Duration
	sleep    time.Duration
	tail     time.Duration
	fail     bool
	takeTime bool // the work reads the daemon thread's last core, so a wrong pick shows
	serve    crossServe
	// nested serves the request through a second FUSE mount, as
	// unionfs-fuse over ceph-fuse (F/F) does: the outer daemon's
	// metadata operation crosses the inner mount from its daemon thread,
	// whose daemon serves the request.
	nested bool
}

// body is the request's service as blocking code, as the historical
// crossing's fn, fnFS and a handle's Read run it.
func (r *crossRequest) body(ctx vfsapi.Ctx) error {
	if r.takeTime {
		// A daemon thread's last core depends on which thread was picked.
		ctx.T.Exec(ctx.P, cpu.User, time.Duration(2+ctx.T.LastCore())*time.Microsecond)
	}
	ctx.T.Exec(ctx.P, cpu.User, r.work)
	ctx.P.Sleep(r.sleep)
	ctx.T.Exec(ctx.P, cpu.User, r.tail)
	return r.err()
}

// fnFS serves Mkdir by running fn on the serving thread's context: a
// metadata operation of a filesystem behind the transport.
type fnFS struct {
	vfsapi.FileSystem
	fn func(vfsapi.Ctx) error
}

func (f *fnFS) Mkdir(ctx vfsapi.Ctx, _ string) error { return f.fn(ctx) }

// fnCall is a metadata Call that fn serves.
func fnCall(fn func(vfsapi.Ctx) error) vfsapi.Call {
	return vfsapi.Call{Kind: vfsapi.OpMkdir, FS: &fnFS{fn: fn}}
}

func (r *crossRequest) err() error {
	if r.fail {
		return errServe
	}
	return nil
}

// crossHandle serves a request as a handle: its Read is the request's
// body, and its Start begins the same service as a run, unless the
// request refuses.
type crossHandle struct {
	vfsapi.Handle
	e   *sim.Engine
	r   *crossRequest
	out *crossOutcome
}

func (h *crossHandle) Read(ctx vfsapi.Ctx, _, _ int64) (int64, error) { return 0, h.r.body(ctx) }

func (h *crossHandle) Start(ctx vfsapi.Ctx, op vfsapi.Call, reply func()) vfsapi.Run {
	if op.Kind != vfsapi.OpRead {
		return nil
	}
	if h.r.serve == serveRefuse {
		h.out.refused++
		return nil
	}
	run := &crossRun{h: h, ctx: ctx, reply: reply}
	var steps []cpu.Step
	if h.r.takeTime {
		steps = append(steps, cpu.Charge(cpu.User, time.Duration(2+ctx.T.LastCore())*time.Microsecond))
	}
	steps = append(steps, cpu.Charge(cpu.User, h.r.work))
	ctx.T.LockedChainThen(ctx.P, nil, nil, "", run.worked, steps...)
	return run
}

// crossRun is a crossHandle's run: the body's steps as continuations.
type crossRun struct {
	h     *crossHandle
	ctx   vfsapi.Ctx
	reply func()
}

func (run *crossRun) worked() { run.h.e.After(run.h.r.sleep, run.slept) }

func (run *crossRun) slept() {
	if run.h.r.serve == serveHandBack {
		run.h.out.handBacks++
		run.ctx.P.ResumeHere()
		return
	}
	run.h.out.runs++
	run.ctx.T.LockedChainThen(run.ctx.P, nil, nil, "", run.reply, cpu.Charge(cpu.User, run.h.r.tail))
}

func (run *crossRun) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	if run.h.r.serve == serveHandBack {
		ctx.T.Exec(ctx.P, cpu.User, run.h.r.tail)
	}
	return vfsapi.Result{}, run.h.r.err()
}

type crossApp struct {
	acct int // index of the application account
	mask cpu.Mask
	reqs []crossRequest
}

// crashToggle crashes (or restarts) the daemon at a fixed time.
type crashToggle struct {
	at      time.Duration
	restart bool
}

type crossScenario struct {
	cores, daemons int
	daemonMask     cpu.Mask
	apps           []crossApp
	toggles        []crashToggle
	innerDaemons   int // daemon threads of the nested mount; 0 means daemons
}

var errServe = errors.New("daemon-side failure")

type crossResult struct {
	at  time.Duration
	n   int64
	err error
}

type crossWait struct {
	proc         int
	kind, holder string
	start, dur   time.Duration
}

// crossOutcome is everything TestCrossingMatchesHistorical requires the
// two crossings to agree on.
type crossOutcome struct {
	results [][]crossResult // per app, per request
	busy    []time.Duration // per core
	cpu     []time.Duration // per account, the daemon's last
	counts  []uint64        // per window tick, each account's mode and context switches
	waits   []crossWait
	events  int

	// How the real crossing's requests were served.
	runs, handBacks, refused, nests int
}

func randomMaskOf(rng *rand.Rand, cores int) cpu.Mask {
	if rng.Intn(3) == 0 {
		return 0 // anywhere
	}
	var m cpu.Mask
	for m == 0 {
		m = cpu.Mask(rng.Intn(1 << cores))
	}
	return m
}

func randomCrossScenario(rng *rand.Rand) crossScenario {
	q := model.Default().Quantum
	sc := crossScenario{cores: 1 + rng.Intn(4), daemons: 1 + rng.Intn(4), innerDaemons: rng.Intn(3)}
	sc.daemonMask = randomMaskOf(rng, sc.cores)
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		app := crossApp{acct: rng.Intn(2), mask: randomMaskOf(rng, sc.cores)}
		for j, m := 0, 1+rng.Intn(6); j < m; j++ {
			var r crossRequest
			if rng.Intn(2) == 0 {
				r.gap = time.Duration(rng.Intn(2000)) * time.Microsecond
			}
			payload := func() int64 {
				switch rng.Intn(3) {
				case 0:
					return 0
				case 1:
					return 1 + rng.Int63n(4<<10)
				default:
					return int64(1+rng.Intn(32)) << 12
				}
			}
			r.in, r.out = payload(), payload()
			switch rng.Intn(4) {
			case 0:
			case 1:
				r.work = time.Duration(1+rng.Intn(20)) * time.Microsecond
			case 2:
				r.work = time.Duration(1 + rng.Int63n(int64(q)))
			default:
				r.work = time.Duration(1+rng.Intn(3))*q + time.Duration(rng.Int63n(int64(q)))
			}
			if rng.Intn(3) == 0 {
				r.sleep = time.Duration(rng.Intn(500)) * time.Microsecond
			}
			r.fail = rng.Intn(5) == 0
			r.takeTime = rng.Intn(2) == 0
			switch rng.Intn(4) {
			case 0:
			case 1:
				r.tail = time.Duration(rng.Int63n(int64(2 * q)))
			default:
				r.tail = time.Duration(1+rng.Intn(20)) * time.Microsecond
			}
			r.serve = crossServe(rng.Intn(4))
			r.nested = rng.Intn(4) == 0
			app.reqs = append(app.reqs, r)
		}
		sc.apps = append(sc.apps, app)
	}
	return sc
}

// addToggles arms crashes and restarts: some at random times, and some
// at the instants where requests of a fault-free probe run returned —
// the instants their daemon slots were handed to queued requests — so
// that crashes land exactly at grants, and restarts right after them,
// before or at the grant of a queued request.
func addToggles(rng *rand.Rand, sc *crossScenario, probe crossOutcome) {
	var instants []time.Duration
	for _, rs := range probe.results {
		for _, r := range rs {
			instants = append(instants, r.at)
		}
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		at := time.Duration(rng.Intn(8000)) * time.Microsecond
		if len(instants) > 0 && rng.Intn(3) > 0 {
			at = instants[rng.Intn(len(instants))]
		}
		sc.toggles = append(sc.toggles, crashToggle{at: at})
		var back time.Duration
		switch rng.Intn(3) {
		case 0: // at the same instant, after the crash
		case 1:
			back = time.Duration(1+rng.Intn(50)) * time.Microsecond
		default:
			back = time.Duration(1+rng.Intn(3000)) * time.Microsecond
		}
		sc.toggles = append(sc.toggles, crashToggle{at: at + back, restart: true})
	}
}

// runCrossScenario runs sc on a fresh engine, each request through the
// historical crossing or the real one. A callback ticks at a fixed
// period while any proc is live and reads every account's switch
// counters, as a measurement window boundary would.
func runCrossScenario(sc crossScenario, historical bool, tick time.Duration) crossOutcome {
	e := sim.NewEngine()
	params := model.Default()
	c := cpu.New(e, params, sc.cores)
	var out crossOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events++
		}
	})
	e.SetWaitObserver(func(proc int, kind, _, holder string, _ int, start, dur time.Duration) {
		out.waits = append(out.waits, crossWait{proc, kind, holder, start, dur})
	})
	accts := []*cpu.Account{cpu.NewAccount("a"), cpu.NewAccount("b"), cpu.NewAccount("daemon")}
	tr := New(e, c, params, nil, Config{Name: "fuse", Acct: accts[2], Mask: sc.daemonMask, Threads: sc.daemons})
	inner := sc.innerDaemons
	if inner == 0 {
		inner = sc.daemons
	}
	nested := New(e, c, params, nil, Config{Name: "fuse2", Acct: accts[2], Mask: sc.daemonMask, Threads: inner})
	cross := func(tr *Transport, ctx vfsapi.Ctx, in, out int64, c vfsapi.Call) error {
		if historical {
			return historicalCrossing(tr, ctx, in, out, func(dctx vfsapi.Ctx) error { _, err := c.Do(dctx); return err }, nil)
		}
		_, err := tr.crossing(ctx, in, out, &c)
		return err
	}
	for _, tg := range sc.toggles {
		e.After(tg.at, func() {
			if tg.restart {
				tr.Restart()
				nested.Restart()
			} else {
				tr.Crash()
				nested.Crash()
			}
		})
	}
	out.results = make([][]crossResult, len(sc.apps))
	for i, app := range sc.apps {
		th := c.NewThread(accts[app.acct], app.mask)
		e.Go("app", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: th}
			for _, r := range app.reqs {
				p.Sleep(r.gap)
				c := fnCall(r.body)
				if r.serve != serveFn {
					c = vfsapi.Call{Kind: vfsapi.OpRead, H: &crossHandle{e: e, r: &r, out: &out}, N: r.out}
				}
				var err error
				if r.nested {
					out.nests++
					// Only the inner crossing serves the request: the
					// outer one serves a metadata operation and runs its
					// blocking reply chain.
					err = cross(tr, ctx, r.in, r.out, fnCall(func(dctx vfsapi.Ctx) error {
						return cross(nested, dctx, r.in, r.out, c)
					}))
				} else {
					err = cross(tr, ctx, r.in, r.out, c)
				}
				out.results[i] = append(out.results[i], crossResult{at: p.Now(), err: err})
			}
		})
	}
	var window func()
	window = func() {
		for _, a := range accts {
			out.counts = append(out.counts, a.ModeSwitches(), a.ContextSwitches())
		}
		if e.LiveProcs() > 0 {
			e.After(tick, window)
		}
	}
	e.After(tick, window)
	e.Run()
	out.busy = c.UtilSnapshot()
	for _, a := range accts {
		out.cpu = append(out.cpu, a.CPUTime())
	}
	return out
}

func compareCross(t *testing.T, name string, got, want crossOutcome) {
	t.Helper()
	for i := range want.results {
		if !slices.Equal(got.results[i], want.results[i]) {
			t.Fatalf("%s app %d: requests return %v, historical crossing %v", name, i, got.results[i], want.results[i])
		}
	}
	if !slices.Equal(got.busy, want.busy) {
		t.Fatalf("%s: core busy %v, historical crossing %v", name, got.busy, want.busy)
	}
	if !slices.Equal(got.cpu, want.cpu) {
		t.Fatalf("%s: account CPU %v, historical crossing %v", name, got.cpu, want.cpu)
	}
	if !slices.Equal(got.counts, want.counts) {
		t.Fatalf("%s: window switch counts differ:\n got %v\nwant %v", name, got.counts, want.counts)
	}
	if !slices.Equal(got.waits, want.waits) {
		t.Fatalf("%s: wait reports differ:\n got %v\nwant %v", name, got.waits, want.waits)
	}
	if got.events != want.events {
		t.Fatalf("%s: %d engine events, historical crossing %d", name, got.events, want.events)
	}
}

// TestCrossingMatchesHistorical is a differential test of the crossing
// against the straight-line code its dispatch continuation replaced:
// over random core counts, masks, daemon thread counts and request
// mixes — payloads of zero, sub-page and many pages, daemon work from
// none to several quanta, I/O sleeps and failures — with the daemon
// crashing and restarting at random times and exactly at the instants
// where daemon slots are handed to queued requests, every request must
// return at the same time with the same error, every core and account
// must be charged the same, the switch counters must agree at every
// window boundary, the wait reports must match in order, and the
// engine must process the same number of events. The fixed cases pin a
// crash while requests wait for the one daemon thread, a crash at the
// grant instant, and a crash plus restart before a queued request's
// grant. Requests whose handle's run takes the reply — as the client's
// request run does for a cached Read or Write — must match the
// historical crossing's blocking reply, as must those whose run falls
// back from the reply and those nested under a second mount (F/F),
// where only the inner crossing's run is given the reply.
func TestCrossingMatchesHistorical(t *testing.T) {
	us := time.Microsecond
	queued := func(toggles ...crashToggle) crossScenario {
		sc := crossScenario{cores: 2, daemons: 1, toggles: toggles}
		for range 3 {
			sc.apps = append(sc.apps, crossApp{reqs: []crossRequest{{in: 4096, out: 4096, work: 100 * us}, {gap: 50 * us, work: 10 * us}}})
		}
		return sc
	}
	probe := runCrossScenario(queued(), true, 30*us)
	grant := probe.results[0][0].at // the first request's return hands its slot on
	fixed := map[string]crossScenario{
		"crash while queued":          queued(crashToggle{at: 50 * us}, crashToggle{at: 2000 * us, restart: true}),
		"crash at the grant":          queued(crashToggle{at: grant}),
		"crash and restart at grant":  queued(crashToggle{at: grant}, crashToggle{at: grant, restart: true}),
		"crash and restart in queue":  queued(crashToggle{at: grant - 20*us}, crashToggle{at: grant - us, restart: true}),
		"crash at grant, restart one": queued(crashToggle{at: grant}, crashToggle{at: grant + us, restart: true}),
	}
	var crashedQueued int
	for name, sc := range fixed {
		want := runCrossScenario(sc, true, 30*us)
		compareCross(t, name, runCrossScenario(sc, false, 30*us), want)
		for _, rs := range want.results {
			for _, r := range rs[:1] {
				if errors.Is(r.err, vfsapi.ErrCrashed) && r.at > grant-us {
					crashedQueued++
				}
			}
		}
	}
	if crashedQueued == 0 {
		t.Fatal("no fixed case failed a request that had queued for the daemon")
	}

	rng := rand.New(rand.NewSource(1))
	var runs, handBacks, refused, nests int
	for n := 0; n < 300; n++ {
		sc := randomCrossScenario(rng)
		tick := time.Duration(20+rng.Intn(300)) * us
		addToggles(rng, &sc, runCrossScenario(sc, true, tick))
		want := runCrossScenario(sc, true, tick)
		got := runCrossScenario(sc, false, tick)
		compareCross(t, fmt.Sprint("scenario ", n), got, want)
		runs, handBacks, refused, nests = runs+got.runs, handBacks+got.handBacks, refused+got.refused, nests+got.nests
	}
	t.Logf("runs started and replied %d, handed back %d, refused %d; nested crossings %d", runs, handBacks, refused, nests)
	if runs == 0 || handBacks == 0 || refused == 0 || nests == 0 {
		t.Errorf("runs replied %d times, handed back %d times, were refused %d times, nested %d times; want each at least once", runs, handBacks, refused, nests)
	}
}

// TestCrossingParksOncePerSide pins what the dispatch continuation
// buys for a crossing whose operation cannot start a run: a crossing that
// waits for the one daemon thread parks its process twice — once until
// the daemon has read the request, once for the reply — and a request
// the daemon's crash fails at the grant parks it once. The contended
// crossing stays allocation-free.
func TestCrossingParksOncePerSide(t *testing.T) {
	e := sim.NewEngine()
	params := model.Default()
	c := cpu.New(e, params, 2)
	acct := cpu.NewAccount("app")
	tr := New(e, c, params, nil, Config{Name: "fuse", Threads: 1})
	serve := fnCall(func(vfsapi.Ctx) error { return nil })
	for i := range 3 {
		th := c.NewThread(acct, 0)
		e.Go("app", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: th}
			before := p.Parks()
			if _, err := tr.crossing(ctx, 4096, 4096, &serve); err != nil {
				t.Errorf("app %d: %v", i, err)
			}
			if n := p.Parks() - before; n != 2 {
				t.Errorf("app %d parked %d times during one crossing, want 2", i, n)
			}
		})
	}
	e.Run()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d procs left", e.LiveProcs())
	}

	e = sim.NewEngine()
	c = cpu.New(e, params, 2)
	tr = New(e, c, params, nil, Config{Name: "fuse", Threads: 1})
	crash := fnCall(func(vfsapi.Ctx) error { tr.Crash(); return nil })
	for i := range 2 {
		th := c.NewThread(acct, 0)
		e.Go("app", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: th}
			before := p.Parks()
			_, err := tr.crossing(ctx, 0, 0, &crash)
			if i == 1 {
				if !errors.Is(err, vfsapi.ErrCrashed) {
					t.Errorf("queued request returned %v, want ErrCrashed", err)
				}
				if n := p.Parks() - before; n != 1 {
					t.Errorf("a request failed at its grant parked %d times, want 1", n)
				}
			}
		})
	}
	e.Run()

	allocgate.Check(t, []allocgate.Case{
		{Name: "CrossingContended", Body: crossingContended, N: 5000},
	})
}

// BenchmarkCrossingContended has four application threads on two cores
// share a daemon with one thread, each issuing 4 KiB read-sized
// crossings with 1µs of daemon work, so most requests queue for the
// daemon thread. One op is one crossing.
func BenchmarkCrossingContended(b *testing.B) { allocgate.Bench(b, crossingContended) }

func crossingContended(n int) func() {
	e := sim.NewEngine()
	params := model.Default()
	c := cpu.New(e, params, 2)
	acct := cpu.NewAccount("app")
	tr := New(e, c, params, nil, Config{Name: "fuse", Threads: 1})
	const apps = 4
	for i := 0; i < apps; i++ {
		per := allocgate.Share(n, apps, i)
		th := c.NewThread(acct, 0)
		e.Go("app", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: th}
			serve := fnCall(func(dctx vfsapi.Ctx) error {
				dctx.T.Exec(dctx.P, cpu.User, time.Microsecond)
				return nil
			})
			for range per {
				tr.crossing(ctx, 0, 4096, &serve)
			}
		})
	}
	return e.Run
}
