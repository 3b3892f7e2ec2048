// Package ipc models the Danaus interprocess communication: fixed-size
// circular request queues in shared memory, one per core group, between
// the filesystem library preloaded into each application (front driver)
// and the filesystem service of the tenant (back driver).
//
// The transport stays entirely at user level: no mode switches and no
// data copies through the kernel. An application thread is pinned to
// the cores of the queue that receives its first request, and service
// threads are pinned to the cores of the queue they serve, minimizing
// migrations and cache-line bouncing (§3.5). A context switch is paid
// only when the target service thread has gone idle; under load the
// service side is already running and requests flow switch-free — the
// source of the 9-39x context-switch gap against stacked FUSE (Fig 8b).
package ipc

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Config configures the transport of one filesystem service.
type Config struct {
	// Name for diagnostics.
	Name string
	// Mask is the pool's reserved cores; one queue is created per core
	// group in it.
	Mask cpu.Mask
	// Acct is the service account (CPU attribution of service threads).
	Acct *cpu.Account
	// NoPinning disables the front driver's thread-to-queue pinning
	// (ablation of the §3.5 placement policy): threads pick queues
	// round-robin on every call and keep their original affinity.
	NoPinning bool
}

// Transport connects applications to a filesystem service over
// shared-memory queues. It implements vfsapi.FileSystem by forwarding
// every operation to the inner filesystem instance on a service thread.
type Transport struct {
	eng    *sim.Engine
	cpus   *cpu.CPU
	params *model.Params
	inner  vfsapi.FileSystem
	cfg    Config

	queues []*queueState
	pinned map[*cpu.Thread]*queueState
	rr     int

	calls       uint64
	wakeups     uint64
	scaleEvents int
}

type queueState struct {
	mask       cpu.Mask
	svcThreads []*cpu.Thread // grows under backlog (§3.5)
	next       int
	inflight   int
	dispatch   *sim.Mutex
	lastServed time.Duration
	everServed bool
}

// New creates the transport with one queue (and one pinned service
// thread) per core group of the pool mask.
func New(eng *sim.Engine, cpus *cpu.CPU, params *model.Params, inner vfsapi.FileSystem, cfg Config) *Transport {
	if cfg.Acct == nil {
		cfg.Acct = cpu.NewAccount(cfg.Name + ".fsvc")
	}
	if cfg.Mask == 0 {
		cfg.Mask = cpus.AllMask()
	}
	t := &Transport{
		eng:    eng,
		cpus:   cpus,
		params: params,
		inner:  inner,
		cfg:    cfg,
		pinned: map[*cpu.Thread]*queueState{},
	}
	for g := 0; g < cpus.NumGroups(); g++ {
		gm := cpus.GroupMask(g) & cfg.Mask
		if gm == 0 {
			continue
		}
		t.queues = append(t.queues, &queueState{
			mask:       gm,
			svcThreads: []*cpu.Thread{cpus.NewThread(cfg.Acct, gm)},
			dispatch:   sim.NewMutex(eng, cfg.Name+".q"),
		})
	}
	if len(t.queues) == 0 {
		panic("ipc: pool mask covers no core group")
	}
	return t
}

// Inner returns the filesystem instance behind the service.
func (t *Transport) Inner() vfsapi.FileSystem { return t.inner }

// Calls returns the number of requests carried.
func (t *Transport) Calls() uint64 { return t.calls }

// Wakeups returns how many requests found the service thread asleep.
func (t *Transport) Wakeups() uint64 { return t.wakeups }

// queueFor pins the calling thread to a queue on first use (§3.5: the
// front driver pins the thread to the cores of the request queue that
// receives its first I/O request).
func (t *Transport) queueFor(th *cpu.Thread) *queueState {
	if t.cfg.NoPinning {
		q := t.queues[t.rr%len(t.queues)]
		t.rr++
		return q
	}
	if q, ok := t.pinned[th]; ok {
		return q
	}
	var q *queueState
	if last := th.LastCore(); last >= 0 {
		for _, cand := range t.queues {
			if cand.mask.Has(last) {
				q = cand
				break
			}
		}
	}
	if q == nil {
		q = t.queues[t.rr%len(t.queues)]
		t.rr++
	}
	t.pinned[th] = q
	th.SetAffinity(q.mask)
	return q
}

// call performs one request/response over the queue: descriptor
// enqueue by the app thread, service-side dispatch and execution on the
// pinned service thread, all at user level.
func (t *Transport) call(ctx vfsapi.Ctx, fn func(dctx vfsapi.Ctx) error) error {
	defer ctx.Span.Enter(obs.LayerIPC).Exit()
	t.calls++
	q := t.queueFor(ctx.T)
	p := t.params

	// Front driver: fill the request descriptor in shared memory.
	ctx.T.Exec(ctx.P, cpu.User, p.IPCEnqueueCost)

	// Wake the service thread if its poll window has lapsed.
	now := t.eng.Now()
	if !q.everServed || now-q.lastServed > t.params.IPCPollWindow {
		t.wakeups++
		ctx.T.Chain(ctx.P, ctx.T.ContextSwitchStep(), cpu.Charge(cpu.User, p.IPCWakeupCost))
	}

	// Back driver: pick a service thread, growing the pool when the
	// queue backlog exceeds the scale threshold (§3.5: extra service
	// threads are added when pending requests accumulate).
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

// ScaleEvents reports how many extra service threads were spawned in
// response to queue backlog.
func (t *Transport) ScaleEvents() int { return t.scaleEvents }

// Repin moves every service thread (and future pinnings) to the new
// pool mask — the §9 dynamic resource reallocation. Already-pinned
// application threads keep their queues and follow them onto the
// queue's narrowed mask, preserving the §3.5 queue-locality invariant
// (thread affinity == the cores of the queue it enqueues on).
func (t *Transport) Repin(mask cpu.Mask) {
	if mask == 0 {
		return
	}
	t.cfg.Mask = mask
	for _, q := range t.queues {
		q.mask = q.mask & mask
		if q.mask == 0 {
			q.mask = mask
		}
		for _, th := range q.svcThreads {
			th.SetAffinity(q.mask)
		}
	}
	for th, q := range t.pinned {
		th.SetAffinity(q.mask)
	}
}

// Open forwards through the queue and wraps the handle.
func (t *Transport) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	var h vfsapi.Handle
	err := t.call(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		h, err = t.inner.Open(dctx, path, flags)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &ipcHandle{t: t, inner: h}, nil
}

// Stat forwards through the queue.
func (t *Transport) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	var info vfsapi.FileInfo
	err := t.call(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		info, err = t.inner.Stat(dctx, path)
		return err
	})
	return info, err
}

// Mkdir forwards through the queue.
func (t *Transport) Mkdir(ctx vfsapi.Ctx, path string) error {
	return t.call(ctx, func(dctx vfsapi.Ctx) error { return t.inner.Mkdir(dctx, path) })
}

// Readdir forwards through the queue.
func (t *Transport) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	var ents []vfsapi.DirEntry
	err := t.call(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		ents, err = t.inner.Readdir(dctx, path)
		return err
	})
	return ents, err
}

// Unlink forwards through the queue.
func (t *Transport) Unlink(ctx vfsapi.Ctx, path string) error {
	return t.call(ctx, func(dctx vfsapi.Ctx) error { return t.inner.Unlink(dctx, path) })
}

// Rmdir forwards through the queue.
func (t *Transport) Rmdir(ctx vfsapi.Ctx, path string) error {
	return t.call(ctx, func(dctx vfsapi.Ctx) error { return t.inner.Rmdir(dctx, path) })
}

// Rename forwards through the queue.
func (t *Transport) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	return t.call(ctx, func(dctx vfsapi.Ctx) error { return t.inner.Rename(dctx, oldPath, newPath) })
}

type ipcHandle struct {
	t     *Transport
	inner vfsapi.Handle
}

func (h *ipcHandle) Path() string { return h.inner.Path() }
func (h *ipcHandle) Size() int64  { return h.inner.Size() }

// Read forwards through the queue; data returns via the caller's
// request buffer in shared memory (no kernel copies).
func (h *ipcHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	var got int64
	err := h.t.call(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		got, err = h.inner.Read(dctx, off, n)
		return err
	})
	return got, err
}

// Write forwards through the queue.
func (h *ipcHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	var got int64
	err := h.t.call(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		got, err = h.inner.Write(dctx, off, n)
		return err
	})
	return got, err
}

// Append forwards through the queue.
func (h *ipcHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	var off int64
	err := h.t.call(ctx, func(dctx vfsapi.Ctx) error {
		var err error
		off, err = h.inner.Append(dctx, n)
		return err
	})
	return off, err
}

// Fsync forwards through the queue.
func (h *ipcHandle) Fsync(ctx vfsapi.Ctx) error {
	return h.t.call(ctx, func(dctx vfsapi.Ctx) error { return h.inner.Fsync(dctx) })
}

// Close forwards through the queue.
func (h *ipcHandle) Close(ctx vfsapi.Ctx) error {
	return h.t.call(ctx, func(dctx vfsapi.Ctx) error { return h.inner.Close(dctx) })
}
