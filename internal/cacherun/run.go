// Package cacherun is the request run both client caches share: the
// continuations that carry a Read, Write or Close over a cache.Cache
// ledger while the caller's process stays parked, for the kernel page
// cache (kern) and the user-level object cache (cephclient) alike. It
// holds the read-miss loop (claim; wait on FetchQ for another reader's
// fill, or fill: wire CPU, the object read's first attempt, crash
// check, insert, release and wake; claim again), the insert and
// eviction, the dirty throttle and a Close's size push to the MDS.
// Writeback is the write-back both share over the same table, and
// Names the namespace path: the attribute/dentry cache and the MDS
// round trips.
//
// What the paper compares differs between the clients, and each passes
// it as values in its Steps table: each step's lock and CPU charge, the
// crash check's charge, a bounded or blocking object read and its retry
// route, the message's wire steps and the attribute update after a
// push. What one client does its own way where a shared step reaches
// it, it does in its Client methods. A run hands control back to its
// process, recording where in At, at the first decision that needs it.
// TestKernRunMatchesStraightLine and TestChandleRunMatchesStraightLine
// check each client's run, event for event, against its straight-line
// code.
package cacherun

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Hand names where a run handed control back to its process (see
// Run.HandBack). A client numbers its own points from HandOwn.
type Hand uint8

const (
	HandDone  Hand = iota // the run served the call: return its result
	HandRetry             // a fill's object read failed or cannot start: Retry, then Filled
	HandMeta              // an MDS run handed back: finish it (PushEnd for a push)
	HandOwn               // the first of a client's own points
)

// Lock is one step's lock M (nil: none), its wait name, and Hold, the
// CPU charged holding it before the step's ledger call.
type Lock struct {
	M    *sim.Mutex
	Name string
	Hold cpu.Step
}

// Steps is one client's step table (see the package comment). A fetch
// wait on FetchQ and a wait at the hard dirty limit on ThrottleQ each
// last at most Params.DirtyThrottleCheck.
type Steps[X any] struct {
	Cache             *cache.Cache[X]
	Params            *model.Params
	FetchQ, ThrottleQ *sim.WaitQueue

	// The read-miss loop's claim, a fill's release of its claim, an
	// insert and an eviction.
	Claim, Release, Insert, Evict Lock
	// PageHold is charged per page an Insert adds, under its lock, and
	// per page an Evict frees, after its unlock.
	PageHold cpu.Step
	// StaleEnds ends an insert into an entry from before a crash at its
	// unlock, before the memory-limit check.
	StaleEnds bool
	Crash     cpu.Step // the charge of a crash check that fails a read

	// The namespace path: its cluster serves the object reads and a
	// Close's size push, whose size its cache takes.
	Names *Names
	// A fill's object read: Bounded or blocking (cluster.Retrier.Do),
	// its first try through Names.Clus.Read (the least-degraded member),
	// a retry pinned to the Retrier's member, or through Read when that
	// is the primary and PrimaryRetries is set.
	Retry          *cluster.Retrier
	Bounded        bool
	PrimaryRetries bool
	// Wire writes to w the CPU charges on t of a message of n bytes to
	// the cluster, and returns how many it wrote.
	Wire   func(t *cpu.Thread, n int64, w []cpu.Step) int
	Missed *int64 // if set, counts the bytes fills read in

	OverDirty func() bool // a writer must wait at the hard dirty limit

	wire [5]cpu.Step // Wire's steps, until the chain that charges them copies them
}

// Client is the request a Run carries: the steps each client takes its
// own way where the shared steps reach them.
type Client[X any] interface {
	File() *cache.File[X] // the ledger entry of the request's handle
	// Check is the crash check of a read miss: nil, vfsapi.ErrCrashed
	// (charged Steps.Crash) or another error.
	Check() error
	Fill()           // starts the fill of the claim G: Fetch, a hand-back or Filled
	Fetched()        // copies the resident window out
	Throttled()      // ends a write the dirty throttle let go
	End()            // ends the run with N and Err
	PushSize() int64 // the size a Close pushes to the MDS
}

// Run is the state of one pooled request and the shared steps over it.
// A client embeds it in its request, calls Init once and Reset per
// operation.
type Run[X any] struct {
	P    *sim.Proc
	T    *cpu.Thread
	Span *obs.Span

	Kind     vfsapi.Kind
	At       Hand
	Off, N   int64
	Err      error         // a served call's error; a fill's error while it runs
	FetchLen int64         // a read's readahead window
	G        extent.Extent // the read-miss loop's current claim

	Path  string           // an Open's path; a Close's pushed path
	Flags vfsapi.OpenFlag  // an Open's flags
	Info  vfsapi.FileInfo  // an Open's attributes
	Ino   uint64           // and ino
	Meta  *cluster.MetaRun // the MDS run of a lookup or size push
	Reply func()           // the reply a served run starts; nil resumes the process

	s       *Steps[X]
	c       Client[X]
	op      cluster.Op    // a fill's object read (HandRetry)
	ins     extent.Extent // the range an insert records resident
	insThen func()        // and the step after it
	since   time.Duration // when a throttle wait began

	// Reusable continuations, bound once by Init.
	waited, claimed, wired, released, removed, failed func()
	inserted, held, evicted, throttled, pushWired     func()
	pushed                                            func()
	read                                              func(error)
	attempt                                           func(try, member int) error
}

// Init binds r to its client's table s and request c.
func (r *Run[X]) Init(s *Steps[X], c Client[X]) {
	r.s, r.c = s, c
	r.waited, r.claimed, r.wired, r.released, r.removed, r.failed = r.Reclaim, r.claim, r.readObjects, r.release, r.remove, r.fail
	r.inserted, r.held, r.evicted, r.throttled, r.pushWired = r.insert, r.afterHold, r.evict, r.afterThrottle, r.push
	r.pushed, r.read, r.attempt = r.afterPush, r.afterRead, r.readAttempt
}

// Reset readies r for an operation of ctx.P.
func (r *Run[X]) Reset(ctx vfsapi.Ctx, kind vfsapi.Kind, off, n int64) {
	r.P, r.T, r.Span = ctx.P, ctx.T, ctx.Span
	r.Kind, r.Off, r.N, r.Err, r.FetchLen = kind, off, n, nil, 0
}

// Clear drops what r holds once its operation is over.
func (r *Run[X]) Clear() {
	r.P, r.T, r.Span, r.Err = nil, nil, nil, nil
	r.Path, r.Info, r.Meta, r.Reply, r.insThen = "", vfsapi.FileInfo{}, nil, nil, nil
}

// Ctx is the context of the run's process.
func (r *Run[X]) Ctx() vfsapi.Ctx { return vfsapi.Ctx{P: r.P, T: r.T, Span: r.Span} }

// HandBack records where the run stopped and resumes the process.
func (r *Run[X]) HandBack(at Hand) {
	r.At = at
	r.P.ResumeHere()
}

// Done ends a served run: it starts the reply, whose end resumes the
// process, or, with none, resumes the process at once.
func (r *Run[X]) Done() {
	r.At = HandDone
	if r.Reply != nil {
		r.Reply()
		return
	}
	r.P.ResumeHere()
}

// step takes l's lock and charges its hold, then calls then: at once
// when there is neither. It inlines, so then runs in its caller's frame.
func (r *Run[X]) step(l *Lock, then func()) {
	if l.M == nil && l.Hold.D == 0 {
		then()
		return
	}
	r.chain(l, then)
}

func (r *Run[X]) chain(l *Lock, then func()) {
	r.T.LockedChainThen(r.P, l.M, r.Span, l.Name, then, l.Hold)
}

func (r *Run[X]) unlock(l *Lock) {
	if l.M != nil {
		l.M.Unlock(r.P)
	}
}

// Claim claims the first missing range of the read's window, and goes
// on with a wait, a fill or, with the window resident, the copy out.
func (r *Run[X]) Claim() { r.step(&r.s.Claim, r.claimed) }

func (r *Run[X]) claim() {
	g, wait := r.c.File().Claim(r.Off, r.FetchLen)
	r.unlock(&r.s.Claim)
	r.G = g
	switch {
	case wait:
		r.s.FetchQ.WaitTimeoutThen(r.P, r.s.Params.DirtyThrottleCheck, r.waited)
	case g.Len > 0:
		r.c.Fill()
	default:
		r.c.Fetched()
	}
}

// Reclaim fails a read whose crash check fails, or claims again.
func (r *Run[X]) Reclaim() {
	switch err := r.c.Check(); err {
	case nil:
		r.Claim()
	case vfsapi.ErrCrashed:
		r.Err = err
		r.step(&Lock{Hold: r.s.Crash}, r.failed)
	default:
		r.stop(err)
	}
}

func (r *Run[X]) fail() { r.stop(r.Err) }

// stop ends the read-miss loop, and the read, with err.
func (r *Run[X]) stop(err error) {
	r.N, r.Err = 0, err
	r.c.End()
}

// Fetch fills the claim G from the cluster: the message's wire CPU,
// then the object read's first attempt (see cluster.Retrier.Do). A
// denied bounded read fails the fill; a crashed client and a failed
// attempt hand back at HandRetry.
func (r *Run[X]) Fetch() { r.send(r.G.Len, r.wired) }

// send charges the wire CPU of a message of n bytes, then calls then.
func (r *Run[X]) send(n int64, then func()) {
	s := r.s
	r.T.LockedChainThen(r.P, nil, nil, "", then, s.wire[:s.Wire(r.T, n, s.wire[:])]...)
}

func (r *Run[X]) readObjects() {
	s := r.s
	op, err := s.Retry.Begin(s.Bounded)
	if err != nil {
		r.Filled(err)
		return
	}
	r.op = op
	if !s.Retry.Ready(&r.op) {
		r.Err = nil
		r.HandBack(HandRetry)
		return
	}
	s.Names.Clus.ReadThen(r.Ctx(), r.c.File().Ino, r.G.Off, r.G.Len, r.read)
}

func (r *Run[X]) afterRead(err error) {
	if err != nil {
		r.Err = err
		r.HandBack(HandRetry)
		return
	}
	r.s.Retry.Succeeded(&r.op)
	r.Filled(nil)
}

func (r *Run[X]) readAttempt(try, member int) error {
	ctx, g, ino := r.Ctx(), r.G, r.c.File().Ino
	if try == 0 || member == 0 && r.s.PrimaryRetries {
		return r.s.Names.Clus.Read(ctx, ino, g.Off, g.Len)
	}
	return r.s.Names.Clus.ReadReplica(ctx, ino, g.Off, g.Len, member)
}

// Retry goes on in the process with the object read the run handed
// back at HandRetry, and returns its error.
func (r *Run[X]) Retry(ctx vfsapi.Ctx) error {
	return r.s.Retry.Retry(ctx, &r.op, r.Err, r.attempt)
}

// Filled goes on with a fill whose read ended with err: a good read
// that passes the crash check is inserted, rather than into a restarted
// incarnation's cache. The claim is released either way, so that its
// waiters cycle out.
func (r *Run[X]) Filled(err error) {
	r.Err = err
	if err == nil {
		switch r.Err = r.c.Check(); r.Err {
		case nil:
			if m := r.s.Missed; m != nil {
				*m += r.G.Len
			}
			r.InsertThen(r.G, r.released)
			return
		case vfsapi.ErrCrashed:
			r.step(&Lock{Hold: r.s.Crash}, r.released)
			return
		}
	}
	r.release()
}

func (r *Run[X]) release() { r.step(&r.s.Release, r.removed) }

func (r *Run[X]) remove() {
	r.c.File().Fetching.Remove(r.G.Off, r.G.Len)
	r.unlock(&r.s.Release)
	r.s.FetchQ.Broadcast()
	if r.Err != nil {
		r.stop(r.Err)
		return
	}
	r.Reclaim()
}

// InsertThen records ext resident, evicts cold clean data when the
// cache is over its limit, then calls then.
func (r *Run[X]) InsertThen(ext extent.Extent, then func()) {
	r.ins, r.insThen = ext, then
	r.step(&r.s.Insert, r.inserted)
}

func (r *Run[X]) insert() {
	s, f := r.s, r.c.File()
	if s.StaleEnds && s.Cache.Stale(f) {
		r.unlock(&s.Insert)
		r.insThen()
		return
	}
	l := s.pages(s.Cache.Insert(f, r.ins.Off, r.ins.Len))
	r.step(&l, r.held)
}

func (r *Run[X]) afterHold() {
	r.unlock(&r.s.Insert)
	if r.s.Cache.Over() {
		r.step(&r.s.Evict, r.evicted)
		return
	}
	r.insThen()
}

func (r *Run[X]) evict() {
	s := r.s
	l := s.pages(s.Cache.Evict())
	r.unlock(&s.Evict)
	r.step(&l, r.insThen)
}

// pages is the lock-free step charging PageHold for n bytes of pages.
func (s *Steps[X]) pages(n int64) Lock {
	l := Lock{Hold: s.PageHold}
	l.Hold.D *= time.Duration(s.Params.Pages(n))
	return l
}

// Throttle holds a writer on ThrottleQ, as I/O wait, for pause, then
// while it is over the hard dirty limit, and ends the write.
func (r *Run[X]) Throttle(pause time.Duration) {
	if pause > 0 {
		r.since = r.P.Now()
		r.s.ThrottleQ.WaitTimeoutThen(r.P, pause, r.throttled)
		return
	}
	r.hardLimit()
}

func (r *Run[X]) hardLimit() {
	s := r.s
	if !s.OverDirty() {
		r.c.Throttled()
		return
	}
	r.since = r.P.Now()
	s.ThrottleQ.WaitTimeoutThen(r.P, s.Params.DirtyThrottleCheck, r.throttled)
}

func (r *Run[X]) afterThrottle() {
	r.T.Account().AddIOWait(r.P.Now() - r.since)
	r.hardLimit()
}

// Push pushes a Close's size to the MDS under path: the message's wire
// CPU, then the MDS run, which hands back at HandMeta where the MDS
// stalls or a hop fails, for PushEnd in the process.
func (r *Run[X]) Push(path string) {
	r.Path = path
	r.send(256, r.pushWired)
}

func (r *Run[X]) push() {
	r.At = HandMeta
	r.Meta = r.s.Names.Clus.StartMeta(r.Ctx(), cluster.MetaQuery{Op: cluster.MetaSetSize, Path: r.Path, Size: r.c.PushSize()}, r.pushed)
}

func (r *Run[X]) afterPush() {
	r.Err = r.PushEnd()
	r.c.End()
}

// PushEnd ends the size push's MDS run, updates the cached attribute
// and returns the Close's error.
func (r *Run[X]) PushEnd() error {
	_, err := r.Meta.Finish()
	return r.s.Names.SizePushed(r.Path, r.c.PushSize(), err)
}
