package ipc

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

// historicalCall is the oracle for TestCallMatchesHistorical: the
// straight-line call that the call continuation replaced. The process
// resumes after the enqueue charge, checks the poll window, parks again
// for the wakeup of an idle service thread, does the backlog and
// service-thread bookkeeping, and parks once more for the dispatch.
func historicalCall(t *Transport, ctx vfsapi.Ctx, fn func(dctx vfsapi.Ctx) error) error {
	defer ctx.Span.Enter(obs.LayerIPC).Exit()
	t.calls++
	q := t.queueFor(ctx.T)
	p := t.params
	ctx.T.Exec(ctx.P, cpu.User, p.IPCEnqueueCost)
	now := t.eng.Now()
	if !q.everServed || now-q.lastServed > t.params.IPCPollWindow {
		t.wakeups++
		ctx.T.Chain(ctx.P, ctx.T.ContextSwitchStep(), cpu.Charge(cpu.User, p.IPCWakeupCost))
	}
	q.inflight++
	if q.inflight > (len(q.svcThreads))*p.IPCScaleThreshold && len(q.svcThreads) < 8 {
		q.svcThreads = append(q.svcThreads, t.cpus.NewThread(t.cfg.Acct, q.mask))
		t.scaleEvents++
	}
	svc := q.svcThreads[q.next%len(q.svcThreads)]
	q.next++
	dctx := vfsapi.Ctx{P: ctx.P, T: svc, Span: ctx.Span}
	svc.LockedChain(ctx.P, q.dispatch, nil, "",
		cpu.Charge(cpu.User, p.IPCEnqueueCost), cpu.Step{Unlock: q.dispatch})
	err := fn(dctx)
	q.inflight--
	q.lastServed = t.eng.Now()
	q.everServed = true
	return err
}

// callServe is how the service serves a request.
type callServe uint8

const (
	serveFn       callServe = iota // by fnFS, as a metadata operation
	serveRun                       // by a handle's run, which resumes the process when done
	serveHandBack                  // by a handle's run, which hands control back before its sleep
	serveRefuse                    // by a handle that starts no run: its blocking Read
)

// callRequest is one request: issued after gap, served as work on the
// service thread then a sleep (an I/O wait), failing if fail is set.
type callRequest struct {
	gap   time.Duration
	work  time.Duration
	sleep time.Duration
	fail  bool
	serve callServe
	// nested serves the request through a second transport, called from
	// the first one's service thread, whose service serves it.
	nested bool
}

// workSteps is the request's service CPU on th: a charge that depends
// on th's last core, so a wrong service thread pick shows, then work.
func (r *callRequest) workSteps(th *cpu.Thread) [2]cpu.Step {
	return [2]cpu.Step{
		cpu.Charge(cpu.User, time.Duration(2+th.LastCore())*time.Microsecond),
		cpu.Charge(cpu.User, r.work),
	}
}

// body is the request's service as blocking code, as the historical
// call's fn, fnFS and a handle's Read run it.
func (r *callRequest) body(ctx vfsapi.Ctx) error {
	steps := r.workSteps(ctx.T)
	ctx.T.Exec(ctx.P, steps[0].Kind, steps[0].D)
	ctx.T.Exec(ctx.P, steps[1].Kind, steps[1].D)
	ctx.P.Sleep(r.sleep)
	return r.err()
}

// fnFS serves Mkdir by running fn on the service thread's context: a
// metadata operation of the filesystem behind the service.
type fnFS struct {
	vfsapi.FileSystem
	fn func(vfsapi.Ctx) error
}

func (f *fnFS) Mkdir(ctx vfsapi.Ctx, _ string) error { return f.fn(ctx) }

// fnCall is a metadata Call that fn serves.
func fnCall(fn func(vfsapi.Ctx) error) vfsapi.Call {
	return vfsapi.Call{Kind: vfsapi.OpMkdir, FS: &fnFS{fn: fn}}
}

func (r *callRequest) err() error {
	if r.fail {
		return errServe
	}
	return nil
}

// callHandle serves a request as a handle: its Read is the request's
// body, and its Start begins the same service as a run, unless the
// request refuses.
type callHandle struct {
	vfsapi.Handle
	e   *sim.Engine
	r   *callRequest
	out *callOutcome
}

func (h *callHandle) Read(ctx vfsapi.Ctx, _, _ int64) (int64, error) { return 0, h.r.body(ctx) }

func (h *callHandle) Start(ctx vfsapi.Ctx, op vfsapi.Call, reply func()) vfsapi.Run {
	if op.Kind != vfsapi.OpRead {
		return nil
	}
	if reply != nil {
		panic("ipc: a call passed a reply")
	}
	if h.r.serve == serveRefuse {
		h.out.refused++
		return nil
	}
	run := &callRun{h: h, p: ctx.P}
	steps := h.r.workSteps(ctx.T)
	ctx.T.LockedChainThen(ctx.P, nil, nil, "", run.worked, steps[:]...)
	return run
}

// callRun is a callHandle's run: the body's steps as continuations.
type callRun struct {
	h *callHandle
	p *sim.Proc
}

func (run *callRun) worked() {
	if run.h.r.serve == serveHandBack {
		run.h.out.handBacks++
		run.p.ResumeHere()
		return
	}
	run.h.out.runs++
	run.h.e.After(run.h.r.sleep, run.p.ResumeHere)
}

func (run *callRun) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	if run.h.r.serve == serveHandBack {
		ctx.P.Sleep(run.h.r.sleep)
	}
	return vfsapi.Result{}, run.h.r.err()
}

type callApp struct {
	mask cpu.Mask
	reqs []callRequest
}

type callScenario struct {
	cores     int
	pool      cpu.Mask
	noPinning bool
	window    time.Duration // poll window
	threshold int           // backlog scale threshold
	repinAt   time.Duration // when the pool is repinned to repin (0: never)
	repin     cpu.Mask
	apps      []callApp
}

var errServe = errors.New("service-side failure")

type callResult struct {
	at  time.Duration
	err error
}

type callWait struct {
	proc         int
	kind, holder string
	start, dur   time.Duration
}

// callOutcome is everything TestCallMatchesHistorical requires the two
// calls to agree on.
type callOutcome struct {
	results                    [][]callResult // per app, per request
	busy                       []time.Duration
	cpu                        []time.Duration // app account, then service account
	counts                     []uint64        // per window tick: both accounts' switches, wakeups, scale events
	waits                      []callWait
	events                     int
	calls, wakeups, scale, svc int

	// How the real call's requests were served.
	runs, handBacks, refused, nests int
}

func randomCallScenario(rng *rand.Rand) callScenario {
	q := model.Default().Quantum
	sc := callScenario{cores: 2 + rng.Intn(5), noPinning: rng.Intn(4) == 0, threshold: 1 + rng.Intn(3)}
	for sc.pool == 0 {
		sc.pool = cpu.Mask(rng.Intn(1 << sc.cores))
	}
	sc.window = time.Duration(rng.Intn(300)) * time.Microsecond
	if rng.Intn(3) == 0 {
		sc.repinAt = time.Duration(1+rng.Intn(3000)) * time.Microsecond
		for sc.repin == 0 {
			sc.repin = cpu.Mask(rng.Intn(1 << sc.cores))
		}
	}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		var app callApp
		if rng.Intn(2) == 0 {
			for app.mask == 0 {
				app.mask = cpu.Mask(rng.Intn(1 << sc.cores))
			}
		}
		for j, m := 0, 1+rng.Intn(8); j < m; j++ {
			var r callRequest
			switch rng.Intn(3) {
			case 0: // back to back: within the poll window
			case 1:
				r.gap = time.Duration(rng.Intn(100)) * time.Microsecond
			default: // mostly past the poll window
				r.gap = time.Duration(rng.Intn(1000)) * time.Microsecond
			}
			switch rng.Intn(4) {
			case 0:
			case 1:
				r.work = time.Duration(1+rng.Intn(20)) * time.Microsecond
			case 2:
				r.work = time.Duration(1 + rng.Int63n(int64(q)))
			default:
				r.work = time.Duration(1+rng.Intn(2))*q + time.Duration(rng.Int63n(int64(q)))
			}
			if rng.Intn(3) == 0 {
				r.sleep = time.Duration(rng.Intn(300)) * time.Microsecond
			}
			r.fail = rng.Intn(5) == 0
			app.reqs = append(app.reqs, r)
		}
		sc.apps = append(sc.apps, app)
	}
	return sc
}

// runCallScenario runs sc on a fresh engine, each request through the
// historical call or the real one. A callback ticks at a fixed period
// while any proc is live and reads the switch, wakeup and scale-event
// counters, as a measurement window boundary would.
func runCallScenario(sc callScenario, historical bool, tick time.Duration) callOutcome {
	e := sim.NewEngine()
	params := model.Default()
	params.IPCPollWindow = sc.window
	params.IPCScaleThreshold = sc.threshold
	c := cpu.New(e, params, sc.cores)
	var out callOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events++
		}
	})
	e.SetWaitObserver(func(proc int, kind, _, holder string, _ int, start, dur time.Duration) {
		out.waits = append(out.waits, callWait{proc, kind, holder, start, dur})
	})
	app, svc := cpu.NewAccount("app"), cpu.NewAccount("svc")
	tr := New(e, c, params, nil, Config{Name: "svc", Mask: sc.pool, Acct: svc, NoPinning: sc.noPinning})
	nested := New(e, c, params, nil, Config{Name: "svc2", Mask: sc.pool, Acct: svc, NoPinning: sc.noPinning})
	if sc.repinAt > 0 {
		e.After(sc.repinAt, func() { tr.Repin(sc.repin) })
	}
	call := func(tr *Transport, ctx vfsapi.Ctx, c vfsapi.Call) error {
		if historical {
			return historicalCall(tr, ctx, func(dctx vfsapi.Ctx) error { _, err := c.Do(dctx); return err })
		}
		_, err := tr.Do(ctx, c, struct{}{})
		return err
	}
	out.results = make([][]callResult, len(sc.apps))
	for i, a := range sc.apps {
		th := c.NewThread(app, a.mask)
		e.Go("app", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: th}
			for _, r := range a.reqs {
				p.Sleep(r.gap)
				c := fnCall(r.body)
				if r.serve != serveFn {
					c = vfsapi.Call{Kind: vfsapi.OpRead, H: &callHandle{e: e, r: &r, out: &out}}
				}
				var err error
				if r.nested {
					out.nests++
					// Only the inner call serves the request.
					err = call(tr, ctx, fnCall(func(dctx vfsapi.Ctx) error {
						return call(nested, dctx, c)
					}))
				} else {
					err = call(tr, ctx, c)
				}
				out.results[i] = append(out.results[i], callResult{p.Now(), err})
			}
		})
	}
	var window func()
	window = func() {
		out.counts = append(out.counts, app.ModeSwitches(), app.ContextSwitches(), svc.ModeSwitches(), svc.ContextSwitches(),
			tr.Wakeups(), uint64(tr.ScaleEvents()))
		if e.LiveProcs() > 0 {
			e.After(tick, window)
		}
	}
	e.After(tick, window)
	e.Run()
	out.busy = c.UtilSnapshot()
	out.cpu = []time.Duration{app.CPUTime(), svc.CPUTime()}
	out.calls, out.wakeups, out.scale = int(tr.Calls()+nested.Calls()), int(tr.Wakeups()+nested.Wakeups()), tr.ScaleEvents()+nested.ScaleEvents()
	for _, q := range append(tr.queues, nested.queues...) {
		out.svc += len(q.svcThreads)
	}
	return out
}

// TestCallMatchesHistorical is a differential test of the IPC call
// against the straight-line code its continuation replaced: over random
// core counts, pool masks, poll windows short enough to lapse between
// requests, backlog thresholds of one to three requests (so service
// threads are added under load), unpinned front drivers and repins in
// the middle of the run, with service work from none to two quanta,
// sleeps and failures, every request must return at the same time with
// the same error, every core and account must be charged the same, the
// switch, wakeup and scale-event counters must agree at every window
// boundary and at the end, the wait reports must match in order, and
// the engine must process the same number of events. Requests served
// as a metadata operation (fnFS), by a handle's run — as the client's request run serves a
// cached Read or Write — by a run that hands control back before its
// sleep, and by a handle that starts no run must all match the
// historical call's fn, as must requests nested under a second
// transport, where only the inner call serves the request.
func TestCallMatchesHistorical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var wakeups, scale, runs, handBacks, refused, nests int
	// How each request is served comes from a second source, so the
	// scenarios are those of the fn-only test.
	kinds := rand.New(rand.NewSource(2))
	serves := func(sc callScenario) {
		for _, app := range sc.apps {
			for j := range app.reqs {
				app.reqs[j].serve = callServe(kinds.Intn(4))
				app.reqs[j].nested = kinds.Intn(5) == 0
			}
		}
	}
	for n := 0; n < 300; n++ {
		sc := randomCallScenario(rng)
		serves(sc)
		tick := time.Duration(20+rng.Intn(300)) * time.Microsecond
		want := runCallScenario(sc, true, tick)
		got := runCallScenario(sc, false, tick)
		for i := range want.results {
			if !slices.Equal(got.results[i], want.results[i]) {
				t.Fatalf("scenario %d app %d: requests return %v, historical call %v", n, i, got.results[i], want.results[i])
			}
		}
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"core busy", got.busy, want.busy},
			{"account CPU", got.cpu, want.cpu},
			{"window counters", got.counts, want.counts},
			{"wait reports", got.waits, want.waits},
			{"events", got.events, want.events},
			{"calls, wakeups, scale events, service threads",
				[4]int{got.calls, got.wakeups, got.scale, got.svc}, [4]int{want.calls, want.wakeups, want.scale, want.svc}},
		} {
			if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
				t.Fatalf("scenario %d: %s differ:\n got %v\nwant %v", n, c.what, c.got, c.want)
			}
		}
		wakeups += want.wakeups
		scale += want.scale
		runs, handBacks, refused, nests = runs+got.runs, handBacks+got.handBacks, refused+got.refused, nests+got.nests
	}
	if wakeups == 0 || scale == 0 {
		t.Fatalf("scenarios made %d wakeups and %d scale events, want both exercised", wakeups, scale)
	}
	t.Logf("runs started and done %d, handed back %d, refused %d; nested calls %d", runs, handBacks, refused, nests)
	if runs == 0 || handBacks == 0 || refused == 0 || nests == 0 {
		t.Errorf("runs were done %d times, handed back %d times, were refused %d times, nested %d times; want each at least once", runs, handBacks, refused, nests)
	}
}

// TestCallParksOnce pins what the call continuation buys: a call whose
// service thread has gone idle (a lapsed poll window) and whose
// dispatch lock is contended parks its process once before its
// operation is served, and stays allocation-free.
func TestCallParksOnce(t *testing.T) {
	e := sim.NewEngine()
	params := model.Default()
	params.IPCPollWindow = 0
	c := cpu.New(e, params, 2)
	acct := cpu.NewAccount("app")
	tr := New(e, c, params, nil, Config{Name: "svc", Mask: cpu.MaskOf(0, 1)})
	for range 3 {
		th := c.NewThread(acct, 0)
		e.Go("app", func(p *sim.Proc) {
			for range 3 {
				before := p.Parks()
				op := fnCall(func(dctx vfsapi.Ctx) error {
					if n := p.Parks() - before; n != 1 {
						t.Errorf("proc %d parked %d times before its operation was served, want 1", p.ID(), n)
					}
					return nil
				})
				tr.Do(vfsapi.Ctx{P: p, T: th}, op, struct{}{})
				p.Sleep(time.Microsecond)
			}
		})
	}
	e.Run()
	if tr.Wakeups() == 0 || tr.queues[0].dispatch.Stats().Contended == 0 {
		t.Fatalf("%d wakeups and %d contended dispatches, want some of both", tr.Wakeups(), tr.queues[0].dispatch.Stats().Contended)
	}

	allocgate.Check(t, []allocgate.Case{
		{Name: "CallLapsedPollWindow", Body: callLapsedPollWindow, N: 5000},
	})
}

// BenchmarkCallLapsedPollWindow has two application threads call one
// service queue with a zero poll window, so every call wakes the
// service thread and most queue for the dispatch lock. One op is one
// call.
func BenchmarkCallLapsedPollWindow(b *testing.B) { allocgate.Bench(b, callLapsedPollWindow) }

func callLapsedPollWindow(n int) func() {
	e := sim.NewEngine()
	params := model.Default()
	params.IPCPollWindow = 0
	c := cpu.New(e, params, 2)
	acct := cpu.NewAccount("app")
	tr := New(e, c, params, nil, Config{Name: "svc", Mask: cpu.MaskOf(0, 1)})
	const apps = 2
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
				tr.Do(ctx, serve, struct{}{})
			}
		})
	}
	return e.Run
}
