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
//
// The simulation charges every chunk's crossing event for event, but
// runs a request's chunks as one continuation of engine callbacks
// (see dispatch): a cached Read or Write parks its process once, not
// once per chunk. A Transport is a vfsapi.StartLayer, so a stacked
// mount's daemon starts the inner mount's request as a run too.
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
//
// The chunks of a request run as one continuation (see dispatch): where
// a chunk's reply reaches the application, the dispatch starts the next
// chunk's crossing in place of the process. A request whose every chunk
// the daemon serves as a run — a read or write the client serves from
// its cache — parks its process once in all.
func (t *Transport) Do(ctx vfsapi.Ctx, c vfsapi.Call, _ struct{}) (vfsapi.Result, error) {
	appending := c.Kind == vfsapi.OpAppend
	switch {
	case appending:
		c.Kind, c.Off = vfsapi.OpWrite, c.H.Size()
	case c.Kind != vfsapi.OpRead && c.Kind != vfsapi.OpWrite:
		return t.crossing(ctx, 0, 0, &c)
	}
	at := c.Off
	var r vfsapi.Result
	var err error
	if c.N > 0 {
		r, err = t.getDispatch(ctx, &c, true, 0, 0, nil).wait()
	}
	if appending {
		return vfsapi.Result{N: at}, err
	}
	return r, err
}

// Start begins a Read or Write of c as a run for a transport that serves
// this mount's handle, such as the daemon of a FUSE mount stacked on this
// one, on its thread ctx.T (see vfsapi.Starter): the chunks cross as Do's
// do, and the end of the request starts reply, the reply of the crossing
// above. Any other operation, an empty request and a dead daemon, whose
// aborted syscall charges CPU, start no run.
func (t *Transport) Start(ctx vfsapi.Ctx, c vfsapi.Call, _ struct{}, reply func()) vfsapi.Run {
	if c.Kind != vfsapi.OpRead && c.Kind != vfsapi.OpWrite || c.N <= 0 || t.crashed {
		return nil
	}
	d := t.getDispatch(ctx, &c, true, 0, 0, reply)
	d.next()
	return d
}

// crossing performs one FUSE round trip carrying payloadIn and
// payloadOut, the extra data copies through the kernel in each
// direction; the daemon serves op.
func (t *Transport) crossing(ctx vfsapi.Ctx, payloadIn, payloadOut int64, op *vfsapi.Call) (vfsapi.Result, error) {
	return t.getDispatch(ctx, op, false, payloadIn, payloadOut, nil).wait()
}

// hand names what the process does when the dispatch hands control back
// to it.
type hand uint8

const (
	handEnd   hand = iota // the request is over: return its result
	handDead              // the daemon is dead at a chunk's syscall entry: charge the aborted syscall
	handServe             // the daemon holds a request it starts no run for: serve it
	handRun               // the operation's run handed control back: finish it
)

// dispatch carries one request over the FUSE channel while the
// application's process stays parked. Each round trip — the whole
// request, or one chunk of a Read or Write — is a chain of steps whose
// continuations run at the events where the straight-line crossing
// resumed the process:
//
//   - entered, where the entry chain ends, queues for a daemon thread;
//   - granted, when one is free (at once, or at the event where a
//     release hands over its slot), checks the daemon is alive, picks
//     its thread and starts its read chain;
//   - read, where the read chain ends, starts op's run on the daemon
//     thread, which takes the reply, or hands control back to the
//     process, which serves the request and starts the reply;
//   - resumed, where the reply reaches the application, releases the
//     slot, ends the round trip and starts the next chunk's entry chain.
//
// So a request hands control back only at its end (a short read, an
// error or the last chunk), where the daemon is dead at a chunk's
// syscall entry, and where the process must serve a chunk or finish a
// run that handed control back. Each step pushes what the process
// pushed, so a request keeps every simulated result;
// TestCrossingMatchesHistorical and TestDoMatchesChunkLoop check this
// against the straight-line code.
//
// A dispatch is also the vfsapi.Run of a Read or Write that a crossing
// above started on this mount (F/F: unionfs-fuse serving ceph-fuse's
// handle): its end starts that crossing's reply.
type dispatch struct {
	t    *Transport
	p    *sim.Proc
	app  *cpu.Thread // the thread that issued the request
	span *obs.Span   // the request's span, passed to op's run
	then func()      // the reply of the crossing above; nil resumes the process

	op      vfsapi.Call   // the operation; a chunked request's current chunk
	chunked bool          // a Read or Write, split at the FUSE request size
	at      int64         // a chunked request's first offset
	rest    int64         // a chunked request's bytes after the current chunk
	in, out int64         // the round trip's payloads copied through the kernel
	scope   obs.Scope     // the round trip's FUSE-layer crossing
	dth     *cpu.Thread   // the daemon thread serving the round trip
	run     vfsapi.Run    // op's run, started by the daemon
	served  vfsapi.Result // the round trip's result, when the process served it
	err     error         // and its error
	hand    hand          // what the process does when it resumes
	res     vfsapi.Result // the request's result, once it is over
	resErr  error         // and its error

	entered func() // reusable entry-chain continuation (enter)
	granted func() // reusable slot-grant callback (grant)
	read    func() // reusable read-chain continuation (serve)
	resumed func() // reusable reply-chain continuation (resume)
	replyFn func() // reusable reply starter (reply)
}

// wait is the request in its process: it starts the first round trip,
// parks, and finishes the request from where the dispatch hands control
// back.
func (d *dispatch) wait() (vfsapi.Result, error) {
	if d.next() {
		d.p.Park()
	} else {
		d.hand = handDead
	}
	return d.finish()
}

// Finish finishes the request in the process (see vfsapi.Run).
func (d *dispatch) Finish(vfsapi.Ctx) (vfsapi.Result, error) { return d.finish() }

// finish goes on with the request in the process from where the
// dispatch handed control back, parking again while a round trip's
// reply and the chunks after it run as the dispatch's continuations.
func (d *dispatch) finish() (vfsapi.Result, error) {
	d.then = nil // from here the process waits for the request's end
	for {
		dctx := vfsapi.Ctx{P: d.p, T: d.dth, Span: d.span}
		switch d.hand {
		case handEnd:
			r, err := d.res, d.resErr
			d.t.putDispatch(d)
			return r, err
		case handDead:
			d.abort()
			continue
		case handServe:
			d.served, d.err = d.op.Do(dctx)
		case handRun:
			d.served, d.err = d.run.Finish(dctx)
			d.run = nil
		}
		d.reply()
		d.p.Park()
	}
}

// abort ends the request at a round trip that found the daemon dead.
// The kernel aborts requests on a dead FUSE connection at the syscall
// boundary (ENOTCONN in real life) — no daemon round trip, but the
// aborted syscall still costs its kernel entry, which keeps erroring
// loops moving in simulated time. It stays out of line so that its
// steps are not in the frame of finish, which every request the process
// serves runs under.
//
//go:noinline
func (d *dispatch) abort() {
	d.app.Chain(d.p, d.app.ModeSwitchStep(), cpu.Charge(cpu.Kernel, d.t.params.FUSERequestOverhead), d.app.ModeSwitchStep())
	d.over(vfsapi.Result{}, vfsapi.ErrCrashed)
	d.hand = handEnd
}

// next begins the request's next round trip: it enters the FUSE layer
// and, unless the daemon is dead, starts the entry chain — the
// application enters the kernel and hands the request to FUSE; a
// zero-length copy step only skips. It reports false on a dead daemon.
func (d *dispatch) next() bool {
	if d.chunked {
		d.op.N = min(d.rest, d.t.params.FUSEMaxWrite)
		d.rest -= d.op.N
		d.in, d.out = d.op.N, 0
		if d.op.Kind == vfsapi.OpRead {
			d.in, d.out = 0, d.op.N
		}
	}
	d.scope = d.span.Enter(obs.LayerFUSE)
	if d.t.crashed {
		return false
	}
	d.dth, d.run, d.served, d.err = nil, nil, vfsapi.Result{}, nil
	p := d.t.params
	d.app.LockedChainThen(d.p, nil, nil, "", d.entered,
		d.app.ModeSwitchStep(),
		cpu.Charge(cpu.Kernel, p.FUSERequestOverhead),
		cpu.Charge(cpu.Kernel, p.CopyTime(d.in)),
		d.app.ContextSwitchStep())
	return true
}

// enter queues the request for a daemon thread, taking a free one at
// once.
func (d *dispatch) enter() {
	if d.t.slots.AcquireOrQueue(d.p, d.granted) {
		d.grant()
	}
}

// grant hands the request to the daemon once it holds a slot: if the
// daemon died while the request sat in the FUSE queue the request fails;
// otherwise the next daemon thread returns from read(2) on /dev/fuse and
// copies the request in.
func (d *dispatch) grant() {
	t := d.t
	if t.crashed {
		t.slots.Release()
		d.over(vfsapi.Result{}, vfsapi.ErrCrashed)
		d.end()
		return
	}
	dth := t.daemonThreads[t.next%len(t.daemonThreads)]
	t.next++
	d.dth = dth
	dth.LockedChainThen(d.p, nil, nil, "", d.read, dth.ModeSwitchStep(), cpu.Charge(cpu.Kernel, t.params.CopyTime(d.in)))
}

// serve starts op's run on the daemon thread, which holds the request;
// without one it hands control back to the process. A run that hands
// control back leaves the process to finish it.
func (d *dispatch) serve() {
	d.hand = handRun
	if d.run = d.op.Start(vfsapi.Ctx{P: d.p, T: d.dth, Span: d.span}, d.replyFn); d.run == nil {
		d.handBack(handServe)
	}
}

// reply starts the reply chain, on behalf of op's run or of the process
// that served the request: the daemon copies the reply out and writes
// it, and the application switches back in, copies the reply and
// returns — one chain across both threads, whose end runs resume. The
// chain always has work (its switches), so a run is recorded before its
// reply ends.
func (d *dispatch) reply() {
	app, copyOut := d.app, d.t.params.CopyTime(d.out)
	d.dth.LockedChainThen(d.p, nil, nil, "", d.resumed,
		cpu.Charge(cpu.Kernel, copyOut), d.dth.ModeSwitchStep(),
		app.ContextSwitchStep(),
		cpu.Step{Kind: cpu.Kernel, D: copyOut, Thread: app},
		app.ModeSwitchStep())
}

// resume ends the round trip where its reply reaches the application —
// a run that started the reply returns at once from Finish — and
// releases the daemon's slot; then it ends the request or starts the
// next chunk.
func (d *dispatch) resume() {
	r, err := d.served, d.err
	if d.run != nil {
		r, err = d.run.Finish(vfsapi.Ctx{P: d.p, T: d.dth, Span: d.span})
	}
	d.t.slots.Release()
	switch {
	case d.over(r, err):
		d.end()
	case !d.next():
		d.handBack(handDead)
	}
}

// over ends the round trip with r and err: it exits the FUSE layer,
// advances a chunked request past the bytes moved and reports whether
// the request is over — at an error, a short read or the last chunk —
// with its result set.
func (d *dispatch) over(r vfsapi.Result, err error) bool {
	d.scope.Exit()
	if !d.chunked {
		d.res, d.resErr = r, err
		return true
	}
	if err == nil {
		d.op.Off += r.N
	}
	d.res, d.resErr = vfsapi.Result{N: d.op.Off - d.at}, err
	return err != nil || d.rest == 0 || d.op.Kind == vfsapi.OpRead && r.N < d.op.N
}

// end hands the finished request on: to the reply of the crossing above
// that started it as a run, or back to the process.
func (d *dispatch) end() {
	if d.then != nil {
		d.hand = handEnd
		d.then()
		return
	}
	d.handBack(handEnd)
}

// handBack resumes the process to act at h.
func (d *dispatch) handBack(h hand) {
	d.hand = h
	d.p.ResumeHere()
}

// getDispatch takes a dispatch state from the transport's pool for op:
// chunked, or one round trip with payloads in and out. Safe without
// locking: exactly one goroutine runs at any instant in the simulation.
func (t *Transport) getDispatch(ctx vfsapi.Ctx, op *vfsapi.Call, chunked bool, in, out int64, then func()) *dispatch {
	var d *dispatch
	if n := len(t.pool); n > 0 {
		d = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		d = &dispatch{t: t}
		d.entered, d.granted, d.read, d.resumed, d.replyFn = d.enter, d.grant, d.serve, d.resume, d.reply
	}
	d.p, d.app, d.span, d.then = ctx.P, ctx.T, ctx.Span, then
	d.op, d.chunked, d.at, d.rest, d.in, d.out = *op, chunked, op.Off, op.N, in, out
	return d
}

func (t *Transport) putDispatch(d *dispatch) {
	d.p, d.app, d.span, d.then, d.op, d.dth, d.run = nil, nil, nil, nil, vfsapi.Call{}, nil, nil
	d.served, d.err, d.res, d.resErr = vfsapi.Result{}, nil, vfsapi.Result{}, nil
	t.pool = append(t.pool, d)
}
