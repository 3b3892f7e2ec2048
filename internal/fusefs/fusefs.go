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
	eng    *sim.Engine
	cpus   *cpu.CPU
	params *model.Params
	inner  vfsapi.FileSystem

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
		eng: eng, cpus: cpus, params: params, inner: inner,
		slots: sim.NewResource(eng, cfg.Name+".daemon", cfg.Threads),
	}
	for i := 0; i < cfg.Threads; i++ {
		t.daemonThreads = append(t.daemonThreads, cpus.NewThread(cfg.Acct, cfg.Mask))
	}
	return t
}

// Inner returns the filesystem served by the daemon.
func (t *Transport) Inner() vfsapi.FileSystem { return t.inner }

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

// Crashed reports whether the daemon is dead.
func (t *Transport) Crashed() bool { return t.crashed }

// crossing performs one FUSE round trip: syscall entry, request
// queueing, switch to the daemon, daemon-side service, switch back, and
// syscall exit. payloadIn/payloadOut are the extra data copies through
// the kernel in each direction. The daemon serves io, a Read or Write,
// when io.H is set, and runs fn otherwise.
//
// The process parks once from the syscall entry to the moment the
// daemon has read the request: the entry chain, the wait for a daemon
// thread and the daemon's read chain run as one continuation (see
// dispatch). Where the read chain ends, the continuation starts io's
// run on the daemon thread when io.H can start one (vfsapi.Starter) and
// passes it the reply: a request the run serves starts the reply chain
// from an engine callback, and the process parks once in all, resuming
// at the reply's end. Otherwise — fn, a handle that starts no run, a
// daemon found dead — it hands control back to the process, which
// serves the request itself, or finishes a run that handed control
// back, and runs the reply chain.
func (t *Transport) crossing(ctx vfsapi.Ctx, payloadIn, payloadOut int64, io vfsapi.IO, fn func(dctx vfsapi.Ctx) error) (int64, error) {
	defer ctx.Span.Enter(obs.LayerFUSE).Exit()
	p := t.params
	if t.crashed {
		// The kernel aborts requests on a dead FUSE connection at the
		// syscall boundary (ENOTCONN in real life) — no daemon round
		// trip, but the aborted syscall still costs its kernel entry,
		// which keeps erroring loops moving in simulated time.
		ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, p.FUSERequestOverhead), ctx.T.ModeSwitchStep())
		return 0, vfsapi.ErrCrashed
	}
	// Application enters the kernel and hands the request to FUSE: a
	// zero-length copy step only skips. The daemon side follows as
	// continuations of the chain.
	d := t.getDispatch(ctx, payloadIn, payloadOut, io)
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
		return 0, vfsapi.ErrCrashed
	}
	dctx := vfsapi.Ctx{P: ctx.P, T: d.dth, Span: ctx.Span}
	var n int64
	var err error
	switch {
	case d.run != nil:
		n, err = d.run.Finish(dctx)
	case io.H != nil:
		n, err = io.Do(dctx)
	default:
		err = fn(dctx)
	}
	if !d.replied {
		steps := d.replySteps()
		d.dth.Chain(ctx.P, steps[:]...)
	}
	return n, err
}

// op crosses to the daemon for fn, with no payload.
func (t *Transport) op(ctx vfsapi.Ctx, fn func(dctx vfsapi.Ctx) error) error {
	_, err := t.crossing(ctx, 0, 0, vfsapi.IO{}, fn)
	return err
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
	span    *obs.Span   // the request's span, passed to io's run
	in, out int64       // request and reply payloads copied through the kernel
	io      vfsapi.IO   // the Read or Write to serve, if any
	dth     *cpu.Thread // the daemon thread serving it; nil if the daemon died first
	run     vfsapi.Run  // io's run, started by the daemon
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

// serve starts io's run on the daemon thread, which holds the request;
// without one it hands control back to the process.
func (d *dispatch) serve() {
	d.run = d.io.Start(vfsapi.Ctx{P: d.p, T: d.dth, Span: d.span}, d.replyFn)
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

// reply starts the reply chain on behalf of io's run, which served the
// request in an engine callback; the chain's end resumes the process.
func (d *dispatch) reply() {
	d.replied = true
	steps := d.replySteps()
	d.dth.LockedChainThen(d.p, nil, nil, "", d.resumed, steps[:]...)
}

// getDispatch takes a dispatch state from the transport's pool. Safe
// without locking: exactly one goroutine runs at any instant in the
// simulation.
func (t *Transport) getDispatch(ctx vfsapi.Ctx, in, out int64, io vfsapi.IO) *dispatch {
	var d *dispatch
	if n := len(t.pool); n > 0 {
		d = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		d = &dispatch{t: t}
		d.entered, d.granted, d.read, d.resumed, d.replyFn = d.enter, d.grant, d.serve, d.resume, d.reply
	}
	d.p, d.app, d.span, d.in, d.out, d.io, d.dth, d.run, d.replied = ctx.P, ctx.T, ctx.Span, in, out, io, nil, nil, false
	return d
}

func (t *Transport) putDispatch(d *dispatch) {
	d.p, d.app, d.span, d.io, d.dth, d.run = nil, nil, nil, vfsapi.IO{}, nil, nil
	t.pool = append(t.pool, d)
}

// Open crosses to the daemon and wraps the returned handle.
func (t *Transport) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	var h vfsapi.Handle
	err := t.op(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		h, err = t.inner.Open(dctx, path, flags)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &fuseHandle{t: t, inner: h}, nil
}

// Stat crosses to the daemon.
func (t *Transport) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	var info vfsapi.FileInfo
	err := t.op(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		info, err = t.inner.Stat(dctx, path)
		return err
	})
	return info, err
}

// Mkdir crosses to the daemon.
func (t *Transport) Mkdir(ctx vfsapi.Ctx, path string) error {
	return t.op(ctx, func(dctx vfsapi.Ctx) error {
		return t.inner.Mkdir(dctx, path)
	})
}

// Readdir crosses to the daemon.
func (t *Transport) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	var ents []vfsapi.DirEntry
	err := t.op(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		ents, err = t.inner.Readdir(dctx, path)
		return err
	})
	return ents, err
}

// Unlink crosses to the daemon.
func (t *Transport) Unlink(ctx vfsapi.Ctx, path string) error {
	return t.op(ctx, func(dctx vfsapi.Ctx) error {
		return t.inner.Unlink(dctx, path)
	})
}

// Rmdir crosses to the daemon.
func (t *Transport) Rmdir(ctx vfsapi.Ctx, path string) error {
	return t.op(ctx, func(dctx vfsapi.Ctx) error {
		return t.inner.Rmdir(dctx, path)
	})
}

// Rename crosses to the daemon.
func (t *Transport) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	return t.op(ctx, func(dctx vfsapi.Ctx) error {
		return t.inner.Rename(dctx, oldPath, newPath)
	})
}

type fuseHandle struct {
	t     *Transport
	inner vfsapi.Handle
}

func (h *fuseHandle) Path() string { return h.inner.Path() }
func (h *fuseHandle) Size() int64  { return h.inner.Size() }

// Read splits the request at the FUSE request size, one round trip per
// chunk, each paying the reply copy through the kernel.
func (h *fuseHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	var total int64
	for n > 0 {
		chunk := h.t.params.FUSEMaxWrite
		if n < chunk {
			chunk = n
		}
		got, err := h.t.crossing(ctx, 0, chunk, vfsapi.IO{H: h.inner, Off: off, N: chunk}, nil)
		if err != nil {
			return total, err
		}
		total += got
		off += got
		n -= chunk
		if got < chunk {
			break // EOF
		}
	}
	return total, nil
}

// Write splits at the FUSE request size, one round trip per chunk.
func (h *fuseHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	var total int64
	for n > 0 {
		chunk := h.t.params.FUSEMaxWrite
		if n < chunk {
			chunk = n
		}
		got, err := h.t.crossing(ctx, chunk, 0, vfsapi.IO{H: h.inner, Write: true, Off: off, N: chunk}, nil)
		if err != nil {
			return total, err
		}
		total += got
		off += got
		n -= chunk
	}
	return total, nil
}

// Append forwards to chunked writes at the current end of file.
func (h *fuseHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	off := h.inner.Size()
	_, err := h.Write(ctx, off, n)
	return off, err
}

// Fsync crosses to the daemon.
func (h *fuseHandle) Fsync(ctx vfsapi.Ctx) error {
	return h.t.op(ctx, func(dctx vfsapi.Ctx) error {
		return h.inner.Fsync(dctx)
	})
}

// Close crosses to the daemon.
func (h *fuseHandle) Close(ctx vfsapi.Ctx) error {
	return h.t.op(ctx, func(dctx vfsapi.Ctx) error {
		return h.inner.Close(dctx)
	})
}
