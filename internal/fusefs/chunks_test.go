package fusefs

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// chunkLoop is the oracle for TestDoMatchesChunkLoop: Transport.Do as
// the straight-line loop it was before a request's chunks ran as one
// continuation — one historical crossing per chunk, the process resuming
// between them and serving each chunk itself.
type chunkLoop struct {
	t   *Transport
	out *chunkOutcome
}

func (l chunkLoop) Do(ctx vfsapi.Ctx, c vfsapi.Call, _ struct{}) (vfsapi.Result, error) {
	t := l.t
	cross := func(in, out int64) (vfsapi.Result, error) {
		var r vfsapi.Result
		err := historicalCrossing(t, ctx, in, out, func(dctx vfsapi.Ctx) error {
			var err error
			r, err = c.Do(dctx)
			return err
		}, &l.out.queued)
		l.out.ends = append(l.out.ends, ctx.P.Now())
		return r, err
	}
	appending := c.Kind == vfsapi.OpAppend
	switch {
	case appending:
		c.Kind, c.Off = vfsapi.OpWrite, c.H.Size()
	case c.Kind != vfsapi.OpRead && c.Kind != vfsapi.OpWrite:
		return cross(0, 0)
	}
	at := c.Off
	var err error
	for n := c.N; n > 0; n -= c.N {
		c.N = min(n, t.params.FUSEMaxWrite)
		in, out := c.N, int64(0)
		if c.Kind == vfsapi.OpRead {
			in, out = 0, c.N
		}
		var r vfsapi.Result
		if r, err = cross(in, out); err != nil {
			break
		}
		c.Off += r.N
		if c.Kind == vfsapi.OpRead && r.N < c.N {
			break
		}
	}
	if appending {
		return vfsapi.Result{N: at}, err
	}
	return vfsapi.Result{N: c.Off - at}, err
}

// errDown is the error of the served client while it is down.
var errDown = errors.New("client down")

// chunkFS is the client behind the mounts of TestDoMatchesChunkLoop. Its
// handles serve each chunk as the issuing request's body — daemon CPU,
// an I/O sleep, the transfer, a tail of CPU — blocking, or as a run that
// takes the crossing's reply, hands control back before its tail or is
// refused, as the request's modes say chunk by chunk. While the client
// is down every chunk fails after a crash check that charges CPU, and no
// run starts.
type chunkFS struct {
	vfsapi.FileSystem
	e     *sim.Engine
	files []int64               // file sizes
	reqs  map[int]*chunkRequest // each process's current request
	down  bool
	out   *chunkOutcome
}

func (fs *chunkFS) Open(_ vfsapi.Ctx, path string, _ vfsapi.OpenFlag) (vfsapi.Handle, error) {
	var f int
	fmt.Sscanf(path, "/f%d", &f)
	return &chunkHandle{fs: fs, f: f}, nil
}

type chunkHandle struct {
	vfsapi.Handle
	fs *chunkFS
	f  int
}

func (h *chunkHandle) Size() int64                   { return h.fs.files[h.f] }
func (h *chunkHandle) Close(vfsapi.Ctx) error        { return nil }
func (h *chunkHandle) req(p *sim.Proc) *chunkRequest { return h.fs.reqs[p.ID()] }

// transfer moves a chunk's bytes: a read stops at the end of file, a
// write extends it.
func (h *chunkHandle) transfer(write bool, off, n int64) int64 {
	size := &h.fs.files[h.f]
	if write {
		*size = max(*size, off+n)
		return n
	}
	return max(0, min(n, *size-off))
}

func (h *chunkHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	return h.body(ctx, false, off, n)
}

func (h *chunkHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	return h.body(ctx, true, off, n)
}

// body serves a chunk as blocking code.
func (h *chunkHandle) body(ctx vfsapi.Ctx, write bool, off, n int64) (int64, error) {
	r := h.req(ctx.P)
	r.served++
	if h.fs.down {
		ctx.T.Exec(ctx.P, cpu.Kernel, time.Microsecond)
		return 0, errDown
	}
	if r.takeTime {
		ctx.T.Exec(ctx.P, cpu.User, time.Duration(2+ctx.T.LastCore())*time.Microsecond)
	}
	ctx.T.Exec(ctx.P, cpu.User, r.work)
	ctx.P.Sleep(r.sleep)
	n = h.transfer(write, off, n)
	ctx.T.Exec(ctx.P, cpu.User, r.tail)
	return n, r.err()
}

func (h *chunkHandle) Start(ctx vfsapi.Ctx, op vfsapi.Call, reply func()) vfsapi.Run {
	if op.Kind != vfsapi.OpRead && op.Kind != vfsapi.OpWrite {
		return nil
	}
	write, off, n := op.Kind == vfsapi.OpWrite, op.Off, op.N
	r := h.req(ctx.P)
	mode := r.modes[r.served%len(r.modes)]
	if h.fs.down || mode == serveRefuse {
		h.fs.out.refused++
		return nil
	}
	r.served++
	run := &chunkRun{h: h, r: r, ctx: ctx, reply: reply, mode: mode, write: write, off: off, n: n}
	var steps []cpu.Step
	if r.takeTime {
		steps = append(steps, cpu.Charge(cpu.User, time.Duration(2+ctx.T.LastCore())*time.Microsecond))
	}
	steps = append(steps, cpu.Charge(cpu.User, r.work))
	ctx.T.LockedChainThen(ctx.P, nil, nil, "", run.worked, steps...)
	return run
}

// chunkRun is a chunk's body as continuations.
type chunkRun struct {
	h      *chunkHandle
	r      *chunkRequest
	ctx    vfsapi.Ctx
	reply  func()
	mode   crossServe
	write  bool
	off, n int64
}

func (run *chunkRun) worked() { run.h.fs.e.After(run.r.sleep, run.slept) }

func (run *chunkRun) slept() {
	run.n = run.h.transfer(run.write, run.off, run.n)
	if run.mode == serveHandBack {
		run.h.fs.out.handBacks++
		run.ctx.P.ResumeHere()
		return
	}
	run.h.fs.out.runs++
	run.ctx.T.LockedChainThen(run.ctx.P, nil, nil, "", run.reply, cpu.Charge(cpu.User, run.r.tail))
}

func (run *chunkRun) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	if run.mode == serveHandBack {
		ctx.T.Exec(ctx.P, cpu.User, run.r.tail)
	}
	return vfsapi.Result{N: run.n}, run.r.err()
}

// chunkRequest is one Read, Write or Append of an application, issued
// after gap, with the service of each of its chunks.
type chunkRequest struct {
	gap               time.Duration
	kind              vfsapi.Kind
	off, n            int64
	work, sleep, tail time.Duration
	fail, takeTime    bool
	modes             []crossServe // how the client serves chunk i: modes[i%len]

	served int // chunks served so far
}

// err is a chunk's error. A failing chunk still reports the bytes it
// moved, which the request must not count.
func (r *chunkRequest) err() error {
	if r.fail {
		return errServe
	}
	return nil
}

type chunkApp struct {
	acct   int
	mask   cpu.Mask
	nested bool // through unionfs-fuse over ceph-fuse (F/F), else ceph-fuse (F)
	file   int
	reqs   []chunkRequest
}

// chunkToggle crashes (or restarts) the outer daemon, the inner daemon
// or the client at a fixed time.
type chunkToggle struct {
	at      time.Duration
	target  int // 0 outer daemon, 1 inner daemon, 2 client
	restart bool
}

type chunkScenario struct {
	cores, daemons, innerDaemons int
	daemonMask                   cpu.Mask
	files                        []int64
	apps                         []chunkApp
	toggles                      []chunkToggle
}

// chunkOutcome is crossOutcome for whole requests, with how they ran.
type chunkOutcome struct {
	crossOutcome
	parks  int             // the applications' parks
	queued int             // the oracle's crossings that waited for a daemon thread
	ends   []time.Duration // the oracle's chunk ends
}

// runChunkScenario runs sc on a fresh engine, each request through the
// straight-line chunk loop or through Transport.Do. The applications
// mount the client through ceph-fuse (F) or through unionfs-fuse serving
// ceph-fuse's handles (F/F), whose daemon starts the inner crossings as
// runs.
func runChunkScenario(sc chunkScenario, oracle bool, tick time.Duration) chunkOutcome {
	e := sim.NewEngine()
	params := model.Default()
	c := cpu.New(e, params, sc.cores)
	var out chunkOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events++
		}
	})
	e.SetWaitObserver(func(proc int, kind, _, holder string, _ int, start, dur time.Duration) {
		out.waits = append(out.waits, crossWait{proc, kind, holder, start, dur})
	})
	accts := []*cpu.Account{cpu.NewAccount("a"), cpu.NewAccount("b"), cpu.NewAccount("daemon")}
	fs := &chunkFS{e: e, files: append([]int64(nil), sc.files...), reqs: map[int]*chunkRequest{}, out: &out}
	inner := New(e, c, params, fs, Config{Name: "ceph-fuse", Acct: accts[2], Mask: sc.daemonMask, Threads: sc.innerDaemons})
	outer := New(e, c, params, inner, Config{Name: "unionfs-fuse", Acct: accts[2], Mask: sc.daemonMask, Threads: sc.daemons})
	var single, stacked vfsapi.FileSystem = inner, outer
	if oracle {
		single = vfsapi.Wrap[struct{}](fs, chunkLoop{inner, &out}, nil)
		stacked = vfsapi.Wrap[struct{}](single, chunkLoop{outer, &out}, nil)
	}
	for _, tg := range sc.toggles {
		e.After(tg.at, func() {
			switch {
			case tg.target == 2:
				fs.down = !tg.restart
			case tg.restart:
				[]*Transport{outer, inner}[tg.target].Restart()
			default:
				[]*Transport{outer, inner}[tg.target].Crash()
			}
		})
	}
	out.results = make([][]crossResult, len(sc.apps))
	for i, app := range sc.apps {
		th := c.NewThread(accts[app.acct], app.mask)
		e.Go("app", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: th}
			mount := single
			if app.nested {
				mount = stacked
			}
			h, err := mount.Open(ctx, fmt.Sprintf("/f%d", app.file), vfsapi.RDWR)
			if err != nil {
				// n -1 marks the failed Open.
				out.results[i] = append(out.results[i], crossResult{at: p.Now(), n: -1, err: err})
				return
			}
			for _, r := range app.reqs {
				p.Sleep(r.gap)
				fs.reqs[p.ID()] = &r
				before := p.Parks()
				var n int64
				switch r.kind {
				case vfsapi.OpRead:
					n, err = h.Read(ctx, r.off, r.n)
				case vfsapi.OpWrite:
					n, err = h.Write(ctx, r.off, r.n)
				default:
					n, err = h.Append(ctx, r.n)
				}
				out.parks += p.Parks() - before
				out.results[i] = append(out.results[i], crossResult{p.Now(), n, err})
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

func randomChunkScenario(rng *rand.Rand) chunkScenario {
	const chunk = 128 << 10
	q := model.Default().Quantum
	sc := chunkScenario{cores: 1 + rng.Intn(4), daemons: 1 + rng.Intn(3), innerDaemons: 1 + rng.Intn(3)}
	sc.daemonMask = randomMaskOf(rng, sc.cores)
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		var size int64
		switch rng.Intn(3) {
		case 0:
		case 1:
			size = int64(1+rng.Intn(5)) * chunk
		default:
			size = rng.Int63n(5 * chunk)
		}
		sc.files = append(sc.files, size)
	}
	for i, n := 0, 1+rng.Intn(5); i < n; i++ {
		app := chunkApp{acct: rng.Intn(2), mask: randomMaskOf(rng, sc.cores), nested: rng.Intn(2) == 0, file: rng.Intn(len(sc.files))}
		for j, m := 0, 1+rng.Intn(5); j < m; j++ {
			r := chunkRequest{kind: vfsapi.OpRead}
			switch rng.Intn(5) {
			case 0, 1:
				r.kind = vfsapi.OpWrite
			case 2:
				r.kind = vfsapi.OpAppend
			}
			if rng.Intn(2) == 0 {
				r.gap = time.Duration(rng.Intn(2000)) * time.Microsecond
			}
			switch rng.Intn(3) {
			case 0:
				r.off = int64(rng.Intn(5)) * chunk
			case 1:
				r.off = rng.Int63n(6 * chunk)
			}
			switch rng.Intn(4) {
			case 0:
				r.n = 1 + rng.Int63n(8<<10)
			case 1:
				r.n = int64(1+rng.Intn(6)) * chunk
			default:
				r.n = 1 + rng.Int63n(6*chunk)
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
			if rng.Intn(2) == 0 {
				r.tail = time.Duration(rng.Intn(20)) * time.Microsecond
			}
			r.fail = rng.Intn(10) == 0
			r.takeTime = rng.Intn(2) == 0
			for k, l := 0, 1+rng.Intn(3); k < l; k++ {
				mode := serveRun
				switch rng.Intn(6) {
				case 0:
					mode = serveHandBack
				case 1:
					mode = serveRefuse
				}
				r.modes = append(r.modes, mode)
			}
			app.reqs = append(app.reqs, r)
		}
		sc.apps = append(sc.apps, app)
	}
	return sc
}

// addChunkToggles arms crashes and restarts of the daemons and the
// client: some at random times, most at the instants where a chunk of a
// fault-free probe run ended, so that they land between two chunks of a
// request.
func addChunkToggles(rng *rand.Rand, sc *chunkScenario, probe chunkOutcome) {
	for i, n := 0, rng.Intn(4); i < n; i++ {
		at := time.Duration(rng.Intn(8000)) * time.Microsecond
		if len(probe.ends) > 0 && rng.Intn(4) > 0 {
			at = probe.ends[rng.Intn(len(probe.ends))] + time.Duration(rng.Intn(3))*time.Microsecond
		}
		target := rng.Intn(3)
		sc.toggles = append(sc.toggles,
			chunkToggle{at: at, target: target},
			chunkToggle{at: at + time.Duration(rng.Intn(3000))*time.Microsecond, target: target, restart: true})
	}
}

// TestDoMatchesChunkLoop is a differential test of Transport.Do against
// the straight-line chunk loop its dispatch continuation replaced: over
// random core counts, masks and daemon thread counts, multi-chunk Reads,
// Writes and Appends through ceph-fuse (F) and through unionfs-fuse
// serving ceph-fuse's handles (F/F) — chunks the client serves as a run
// that takes the reply, as a run that hands control back, or blocking,
// reads that end on a short chunk at the end of file, failing chunks,
// chunks queued for a daemon thread, and the daemons and the client
// crashing between two chunks of a request — every request must return
// at the same time with the same result, and the cores, accounts, switch
// counters at every window boundary, wait reports and engine event
// count must agree. The fixed cases pin each of these paths; the sweep
// must reach all of them, and the chained chunks must park the
// applications less often than the loop.
func TestDoMatchesChunkLoop(t *testing.T) {
	const chunk = 128 << 10
	run := []crossServe{serveRun}
	read := func(off, n int64) chunkRequest {
		return chunkRequest{kind: vfsapi.OpRead, off: off, n: n, work: 2 * time.Microsecond, modes: run}
	}
	both := func(files []int64, daemons int, reqs ...chunkRequest) chunkScenario {
		sc := chunkScenario{cores: 2, daemons: daemons, innerDaemons: daemons, files: files}
		for _, nested := range []bool{false, true} {
			sc.apps = append(sc.apps, chunkApp{nested: nested, reqs: reqs})
		}
		return sc
	}
	write := read(0, 3*chunk)
	write.kind = vfsapi.OpWrite
	appendReq := read(0, 2*chunk+100)
	appendReq.kind = vfsapi.OpAppend
	mixed := read(0, 4*chunk)
	mixed.modes = []crossServe{serveRun, serveHandBack, serveRefuse}
	fixed := map[string]chunkScenario{
		"cached chunks":         both([]int64{8 * chunk}, 4, read(0, 8*chunk), write, appendReq),
		"short chunk at EOF":    both([]int64{2*chunk + 300}, 4, read(0, 8*chunk), read(chunk, 4*chunk), read(3*chunk, chunk)),
		"mixed service":         both([]int64{8 * chunk}, 4, mixed),
		"chunks queued":         both([]int64{8 * chunk}, 1, read(0, 4*chunk), write),
		"queued, three readers": {cores: 2, daemons: 1, innerDaemons: 1, files: []int64{8 * chunk}, apps: []chunkApp{{reqs: []chunkRequest{read(0, 4*chunk)}}, {nested: true, reqs: []chunkRequest{read(0, 4*chunk)}}, {reqs: []chunkRequest{read(0, 4*chunk)}}}},
	}
	// Crashes between two chunks: at the end of a probe's first chunk,
	// of each daemon and of the client, restarting later.
	between := both([]int64{8 * chunk}, 4, read(0, 4*chunk), write, appendReq)
	probe := runChunkScenario(between, true, 30*time.Microsecond)
	for target, name := range []string{"outer daemon", "inner daemon", "client"} {
		for _, d := range []time.Duration{0, time.Microsecond} {
			sc := between
			at := probe.ends[1] + d // after the Open's crossing, the first read chunk
			sc.toggles = []chunkToggle{{at: at, target: target}, {at: at + 400*time.Microsecond, target: target, restart: true}}
			fixed[fmt.Sprintf("%s crash between chunks +%v", name, d)] = sc
		}
	}

	var midCrash, midDown, short, queued, nested, runs, handBacks, refused, parks, loopParks int
	count := func(sc chunkScenario, got, want chunkOutcome) {
		for i, app := range sc.apps {
			if app.nested {
				nested++
			}
			for j, r := range want.results[i] {
				if r.n < 0 {
					continue
				}
				req := app.reqs[j]
				switch {
				case errors.Is(r.err, vfsapi.ErrCrashed) && r.n > 0:
					midCrash++
				case errors.Is(r.err, errDown) && r.n > 0:
					midDown++
				case r.err == nil && req.kind == vfsapi.OpRead && r.n > chunk && r.n < req.n:
					short++
				}
			}
		}
		queued += want.queued
		runs, handBacks, refused = runs+got.runs, handBacks+got.handBacks, refused+got.refused
		parks, loopParks = parks+got.parks, loopParks+want.parks
	}
	for name, sc := range fixed {
		want := runChunkScenario(sc, true, 30*time.Microsecond)
		got := runChunkScenario(sc, false, 30*time.Microsecond)
		compareCross(t, name, got.crossOutcome, want.crossOutcome)
		count(sc, got, want)
		if name == "cached chunks" && got.parks != len(sc.apps)*len(sc.apps[0].reqs) {
			t.Errorf("%s: %d requests parked %d times, want once each", name, len(sc.apps)*len(sc.apps[0].reqs), got.parks)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		sc := randomChunkScenario(rng)
		tick := time.Duration(20+rng.Intn(300)) * time.Microsecond
		addChunkToggles(rng, &sc, runChunkScenario(sc, true, tick))
		want := runChunkScenario(sc, true, tick)
		got := runChunkScenario(sc, false, tick)
		compareCross(t, fmt.Sprint("scenario ", n), got.crossOutcome, want.crossOutcome)
		count(sc, got, want)
	}
	t.Logf("daemon crashes mid-request %d, client crashes mid-request %d, short reads %d, queued crossings %d, nested apps %d; runs replied %d, handed back %d, refused %d; parks %d, the loop's %d",
		midCrash, midDown, short, queued, nested, runs, handBacks, refused, parks, loopParks)
	for _, c := range []struct {
		what string
		n    int
	}{
		{"daemon crash between chunks", midCrash}, {"client crash between chunks", midDown}, {"short read", short},
		{"queued crossing", queued}, {"nested app", nested}, {"run that replied", runs}, {"run that handed back", handBacks}, {"refused run", refused},
	} {
		if c.n == 0 {
			t.Errorf("no %s", c.what)
		}
	}
	if parks >= loopParks {
		t.Errorf("requests parked %d times, the chunk loop %d; want fewer", parks, loopParks)
	}
}
