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
	vfsapi.FileSystem // the service's filesystem, every operation through Do

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

	pool []*callState // recycled call states
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
	t.FileSystem = vfsapi.Wrap[struct{}](inner, t, nil)
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

// Do is the call: it forwards op through the queue as one
// request/response, descriptor enqueue by the app thread, service-side
// dispatch and service of op on the pinned service thread, all at user
// level. A read's data returns via the caller's request buffer in
// shared memory (no kernel copies).
//
// The process parks once until the service thread has dispatched the
// request: the enqueue, the wakeup of an idle service thread and the
// dispatch run as one continuation (see callState). Where the dispatch
// ends, the continuation starts op's run on the service thread when op
// can start one (vfsapi.Call.Start); the run resumes the process when
// it has served the request, so a request served from the cache parks
// its process once in all. Otherwise it hands control back to the
// process, which serves the request itself, or finishes a run that
// handed control back.
func (t *Transport) Do(ctx vfsapi.Ctx, op vfsapi.Call, _ struct{}) (vfsapi.Result, error) {
	sc := ctx.Span.Enter(obs.LayerIPC)
	q, svc, run := t.enqueue(ctx, &op)
	dctx := vfsapi.Ctx{P: ctx.P, T: svc, Span: ctx.Span}
	var r vfsapi.Result
	var err error
	if run != nil {
		r, err = run.Finish(dctx)
	} else {
		r, err = op.Do(dctx)
	}
	q.inflight--
	q.lastServed = t.eng.Now()
	q.everServed = true
	sc.Exit()
	return r, err
}

// enqueue is the front driver: it fills the request descriptor for op in
// shared memory and parks the process until the service thread has
// dispatched it. It returns the queue, the service thread and op's run,
// if the service thread started one. It keeps its temporaries out of the
// frame that serves op.
func (t *Transport) enqueue(ctx vfsapi.Ctx, op *vfsapi.Call) (*queueState, *cpu.Thread, vfsapi.Run) {
	t.calls++
	q := t.queueFor(ctx.T)
	c := t.getCall(ctx, q, op)
	ctx.T.LockedChainThen(ctx.P, nil, nil, "", c.enqueued, cpu.Charge(cpu.User, t.params.IPCEnqueueCost))
	ctx.P.Park()
	svc, run := c.svc, c.run
	t.putCall(c)
	return q, svc, run
}

// callState carries one request from the front driver's enqueue to the
// service thread's dispatch while the calling process stays parked:
// enqueued runs where the enqueue charge ends and wakes the service
// thread if its poll window has lapsed; wake then picks the service
// thread and starts the dispatch under the queue lock, whose end starts
// the request's run or hands control back to the process. Each step
// runs at the event where the process used to resume between these
// steps, and pushes what the process pushed, so a call keeps every
// simulated result. TestCallMatchesHistorical checks this against the
// straight-line code.
type callState struct {
	t    *Transport
	p    *sim.Proc
	th   *cpu.Thread // the calling thread
	span *obs.Span   // the request's span, passed to op's run
	q    *queueState
	op   vfsapi.Call // the operation to serve
	svc  *cpu.Thread // the service thread picked for the request
	run  vfsapi.Run  // op's run, started by the service thread

	enqueued   func() // reusable enqueue-chain continuation (poll)
	woken      func() // reusable wakeup-chain continuation (dispatch)
	dispatched func() // reusable dispatch-chain continuation (serve)
}

// poll wakes the service thread if its poll window has lapsed, then
// dispatches.
func (c *callState) poll() {
	t, q := c.t, c.q
	if !q.everServed || t.eng.Now()-q.lastServed > t.params.IPCPollWindow {
		t.wakeups++
		c.th.LockedChainThen(c.p, nil, nil, "", c.woken, c.th.ContextSwitchStep(), cpu.Charge(cpu.User, t.params.IPCWakeupCost))
		return
	}
	c.dispatch()
}

// dispatch is the back driver: pick a service thread, growing the pool
// when the queue backlog exceeds the scale threshold (§3.5: extra
// service threads are added when pending requests accumulate), and
// take the request off the queue under its dispatch lock.
func (c *callState) dispatch() {
	t, q, p := c.t, c.q, c.t.params
	q.inflight++
	if q.inflight > (len(q.svcThreads))*p.IPCScaleThreshold && len(q.svcThreads) < 8 {
		q.svcThreads = append(q.svcThreads, t.cpus.NewThread(t.cfg.Acct, q.mask))
		t.scaleEvents++
	}
	svc := q.svcThreads[q.next%len(q.svcThreads)]
	q.next++
	c.svc = svc
	svc.LockedChainThen(c.p, q.dispatch, nil, "", c.dispatched,
		cpu.Charge(cpu.User, p.IPCEnqueueCost), cpu.Step{Unlock: q.dispatch})
}

// serve starts op's run on the service thread, which holds the request;
// without one it hands control back to the process.
func (c *callState) serve() {
	c.run = c.op.Start(vfsapi.Ctx{P: c.p, T: c.svc, Span: c.span}, nil)
	if c.run == nil {
		c.p.ResumeHere()
	}
}

// getCall takes a call state from the transport's pool. Safe without
// locking: exactly one goroutine runs at any instant in the simulation.
func (t *Transport) getCall(ctx vfsapi.Ctx, q *queueState, op *vfsapi.Call) *callState {
	var c *callState
	if n := len(t.pool); n > 0 {
		c = t.pool[n-1]
		t.pool = t.pool[:n-1]
	} else {
		c = &callState{t: t}
		c.enqueued, c.woken, c.dispatched = c.poll, c.dispatch, c.serve
	}
	c.p, c.th, c.span, c.q, c.op, c.run = ctx.P, ctx.T, ctx.Span, q, *op, nil
	return c
}

func (t *Transport) putCall(c *callState) {
	c.p, c.th, c.span, c.q, c.op, c.svc, c.run = nil, nil, nil, nil, vfsapi.Call{}, nil, nil
	t.pool = append(t.pool, c)
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
