// Package fusefs models the FUSE transport: every operation on a FUSE
// mount crosses from the application into the kernel, is queued to a
// user-level daemon (two context switches), pays extra data copies
// through the kernel, and splits large I/O at the FUSE request size.
//
// Stacking transports composes naturally: unionfs-fuse over ceph-fuse
// (configuration F/F) is a Transport whose inner filesystem issues its
// branch operations through a second Transport — which is exactly why
// that configuration shows 9-39x more context switches than Danaus in
// Fig 8b.
package fusefs

import (
	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Transport is a FUSE mount: a user-level daemon serving a filesystem
// through the kernel FUSE channel. It implements vfsapi.FileSystem.
type Transport struct {
	vfsapi.FileSystem // the served filesystem, every operation through Do

	eng    *sim.Engine
	cpus   *cpu.CPU
	params *model.Params

	// daemonThreads is a pool of CPU threads the daemon side runs on
	// (pinned to the pool's cores like any process of the tenant).
	daemonThreads []*cpu.Thread
	next          int
	// slots gates concurrent requests by the daemon thread count: a
	// FUSE daemon with all threads busy queues further requests, which
	// is what collapses stacked-FUSE configurations when many cloned
	// containers share one ceph-fuse process.
	slots *sim.Resource

	// crashed marks a dead daemon process: requests on the FUSE channel
	// fail with vfsapi.ErrCrashed — the transport error every tenant
	// mounted through this daemon sees — until Restart.
	crashed bool

	pool []*dispatch // recycled dispatch states
}

// Config configures the daemon side of a FUSE mount.
type Config struct {
	// Name for diagnostics.
	Name string
	// Acct is the account charged for daemon CPU (the pool's account).
	Acct *cpu.Account
	// Mask pins the daemon threads.
	Mask cpu.Mask
	// Threads is the daemon thread pool size (default 4).
	Threads int
}

// New creates a FUSE mount serving inner through a daemon.
func New(eng *sim.Engine, cpus *cpu.CPU, params *model.Params, inner vfsapi.FileSystem, cfg Config) *Transport {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Acct == nil {
		cfg.Acct = cpu.NewAccount(cfg.Name + ".fused")
	}
	t := &Transport{
		eng: eng, cpus: cpus, params: params,
		slots: sim.NewResource(eng, cfg.Name+".daemon", cfg.Threads),
	}
	t.FileSystem = vfsapi.Wrap[struct{}](inner, t, nil)
	for i := 0; i < cfg.Threads; i++ {
		t.daemonThreads = append(t.daemonThreads, cpus.NewThread(cfg.Acct, cfg.Mask))
	}
	return t
}

// Crash kills the daemon process: every request on the FUSE channel —
// in flight past the syscall entry or issued later — fails with
// vfsapi.ErrCrashed until Restart. The blast radius is every tenant
// mounted through this daemon, which is the paper's argument against
// sharing one ceph-fuse process across containers.
func (t *Transport) Crash() { t.crashed = true }

// Restart brings a fresh daemon process up on the existing mount. The
// daemon itself is stateless here (its caches live in the inner client,
// which recovers separately), so restart is immediate.
func (t *Transport) Restart() { t.crashed = false }

// Do carries c over the FUSE channel. Read and Write split at the FUSE
// request size, one round trip per chunk: a write's chunk travels in the
// request, a read's in the reply, and a short read chunk ends the read
// (EOF). Append is chunked writes at the current end of file, and
// returns that offset. Every other operation is one round trip with no
// payload.
func (t *Transport) Do(ctx vfsapi.Ctx, c vfsapi.Call, _ struct{}) (vfsapi.Result, error) {
	appending := c.Kind == vfsapi.OpAppend
	switch {
	case appending:
		c.Kind, c.Off = vfsapi.OpWrite, c.H.Size()
	case c.Kind != vfsapi.OpRead && c.Kind != vfsapi.OpWrite:
		return t.crossing(ctx, 0, 0, &c)
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
		if r, err = t.crossing(ctx, in, out, &c); err != nil {
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

// crossing performs one FUSE round trip: syscall entry, request
// queueing, switch to the daemon, daemon-side service, switch back, and
// syscall exit. payloadIn/payloadOut are the extra data copies through
// the kernel in each direction. The daemon serves op.
//
// The process parks once from the syscall entry to the moment the
// daemon has read the request: the entry chain, the wait for a daemon
// thread and the daemon's read chain run as one continuation (see
// dispatch). Where the read chain ends, the continuation starts op's
// run on the daemon thread when op can start one (vfsapi.Call.Start) and
// passes it the reply: a request the run serves starts the reply chain
// from an engine callback, and the process parks once in all, resuming
// at the reply's end. Otherwise — a namespace operation, a handle that
// starts no run, a daemon found dead — it hands control back to the
// process, which serves the request itself, or finishes a run that
// handed control back, and runs the reply chain.
func (t *Transport) crossing(ctx vfsapi.Ctx, payloadIn, payloadOut int64, op *vfsapi.Call) (vfsapi.Result, error) {
	defer ctx.Span.Enter(obs.LayerFUSE).Exit()
	p := t.params
	if t.crashed {
		// The kernel aborts requests on a dead FUSE connection at the
		// syscall boundary (ENOTCONN in real life) — no daemon round
		// trip, but the aborted syscall still costs its kernel entry,
		// which keeps erroring loops moving in simulated time.
		ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, p.FUSERequestOverhead), ctx.T.ModeSwitchStep())
		return vfsapi.Result{}, vfsapi.ErrCrashed
	}
	// Application enters the kernel and hands the request to FUSE: a
	// zero-length copy step only skips. The daemon side follows as
	// continuations of the chain.
	d := t.getDispatch(ctx, payloadIn, payloadOut, op)
	ctx.T.LockedChainThen(ctx.P, nil, nil, "", d.entered,
		ctx.T.ModeSwitchStep(),
		cpu.Charge(cpu.Kernel, p.FUSERequestOverhead),
		cpu.Charge(cpu.Kernel, p.CopyTime(payloadIn)),
		ctx.T.ContextSwitchStep())
	ctx.P.Park()
	defer t.putDispatch(d)
	defer t.slots.Release()
	if d.dth == nil {
		// The daemon died while the request sat in the FUSE queue.
		return vfsapi.Result{}, vfsapi.ErrCrashed
	}
	dctx := vfsapi.Ctx{P: ctx.P, T: d.dth, Span: ctx.Span}
	var r vfsapi.Result
	var err error
	if d.run != nil {
		r.N, err = d.run.Finish(dctx)
	} else {
		r, err = op.Do(dctx)
	}
	if !d.replied {
		steps := d.replySteps()
		d.dth.Chain(ctx.P, steps[:]...)
	}
	return r, err
}

// dispatch carries one request from the application's syscall entry to
// the daemon while the application's process stays parked: entered
// runs where the entry chain ends and queues for a daemon thread; grant
// runs when one is free (at once, or at the event where a release hands
// over its slot), checks the daemon is alive, picks its thread and
// starts its read chain, whose end starts the request's run or hands
// control back to the process. Each step runs at the event where the
// process used to resume between these steps, and pushes what the
// process pushed, so a crossing keeps every simulated result.
// TestCrossingMatchesHistorical checks this against the straight-line
// code.
type dispatch struct {
	t       *Transport
	p       *sim.Proc
	app     *cpu.Thread // the application's thread
	span    *obs.Span   // the request's span, passed to op's run
	in, out int64       // request and reply payloads copied through the kernel
	op      vfsapi.Call // the operation to serve
	dth     *cpu.Thread // the daemon thread serving it; nil if the daemon died first
	run     vfsapi.Run  // op's run, started by the daemon
	replied bool        // the run started the reply chain

	entered func() // reusable entry-chain continuation (enter)
	granted func() // reusable slot-grant callback (grant)
	read    func() // reusable read-chain continuation (serve)
	resumed func() // reusable reply-chain continuation (resume)
	replyFn func() // reusable reply starter (reply)
}

// enter queues the request for a daemon thread, taking a free one at
// once.
func (d *dispatch) enter() {
	if d.t.slots.AcquireOrQueue(d.p, d.granted) {
		d.grant()
	}
}

// grant hands the request to the daemon once it holds a slot: if the
// daemon died while the request sat in the FUSE queue the process
// resumes to fail it; otherwise the next daemon thread returns from
// read(2) on /dev/fuse and copies the request in.
func (d *dispatch) grant() {
	t := d.t
	if t.crashed {
		d.p.ResumeHere()
		return
	}
	dth := t.daemonThreads[t.next%len(t.daemonThreads)]
	t.next++
	d.dth = dth
	dth.LockedChainThen(d.p, nil, nil, "", d.read, dth.ModeSwitchStep(), cpu.Charge(cpu.Kernel, t.params.CopyTime(d.in)))
}

// serve starts op's run on the daemon thread, which holds the request;
// without one it hands control back to the process.
func (d *dispatch) serve() {
	d.run = d.op.Start(vfsapi.Ctx{P: d.p, T: d.dth, Span: d.span}, d.replyFn)
	if d.run == nil {
		d.p.ResumeHere()
	}
}

// resume hands control back to the process: the reply has reached the
// application.
func (d *dispatch) resume() { d.p.ResumeHere() }

// replySteps is the reply: the daemon copies the reply out and writes
// it, and the application switches back in, copies the reply and
// returns — one chain across both threads.
func (d *dispatch) replySteps() [5]cpu.Step {
	copyOut := d.t.params.CopyTime(d.out)
	return [5]cpu.Step{
		cpu.Charge(cpu.Kernel, copyOut), d.dth.ModeSwitchStep(),
		d.app.ContextSwitchStep(),
		{Kind: cpu.Kernel, D: copyOut, Thread: d.app},
		d.app.ModeSwitchStep(),
	}
}

// reply starts the reply chain on behalf of op's run, which served the
// request in an engine callback; the chain's end resumes the process.
func (d *dispatch) reply() {
	d.replied = true
	steps := d.replySteps()
	d.dth.LockedChainThen(d.p, nil, nil, "", d.resumed, steps[:]...)
}

// getDispatch takes a dispatch state from the transport's pool. Safe
// without locking: exactly one goroutine runs at any instant in the
// simulation.
func (t *Transport) getDispatch(ctx vfsapi.Ctx, in, out int64, op *vfsapi.Call) *dispatch {
	var d *dispatch
	if n := len(t.pool); n > 0 {
		d = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		d = &dispatch{t: t}
		d.entered, d.granted, d.read, d.resumed, d.replyFn = d.enter, d.grant, d.serve, d.resume, d.reply
	}
	d.p, d.app, d.span, d.in, d.out, d.op, d.dth, d.run, d.replied = ctx.P, ctx.T, ctx.Span, in, out, *op, nil, nil, false
	return d
}

func (t *Transport) putDispatch(d *dispatch) {
	d.p, d.app, d.span, d.op, d.dth, d.run = nil, nil, nil, vfsapi.Call{}, nil, nil
	t.pool = append(t.pool, d)
}
