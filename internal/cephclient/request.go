package cephclient

import (
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// hand names the point where a request run handed control back to its
// process, and so where the blocking code goes on.
type hand uint8

const (
	handDone   hand = iota // over: return the result
	handRetry              // a fill's backend read failed or cannot start: the Retrier goes on with it
	handRecap              // a write must recap, or its handle went stale: fail a stale one, else recap and re-enter the run at recapped
	handLookup             // an open's path is not in the attribute cache: the MDS lookup
	handCaps               // an open's caps conflict with another holder's: acquire them, revoking
	handTrunc              // an open truncates: make the handle, truncating
	handMeta               // a close's size push handed back in the MDS run: finish it
)

// request carries one Open, Read, Write or Close while its process
// stays parked. Each step is a chain on the caller's thread whose
// continuation runs at the event where the straight-line code resumed
// the process, does what the process did there, and starts the next
// chain:
//
//	Open:  op CPU → client_lock + attribute lookup → caps → handle
//	Read:  op CPU → client_lock + Touch → client_lock + Claim → the
//	       read-miss loop (cache.Fetch: fetchQ wait, or wire → the
//	       backend read (cluster.ReadRun) → client_lock + Insert (+
//	       client_lock + Evict when Over) → client_lock + release, then
//	       client_lock + Claim) → locked copy
//	Write: op CPU → locked copy → client_lock + Insert (+ client_lock +
//	       Evict when Over) → size → client_lock + MarkDirty → flusher
//	       wake → the dirty throttle (throttleQ waits while over the limit)
//	Close: op CPU (→ wire → the MDS size push (cluster.MetaRun) →
//	       attribute update, for a written file)
//
// At the first decision that needs the process — a write's recap, a
// stale handle at a write's insert, a backend read that fails or finds
// the client crashed, an attribute miss, a caps conflict, a truncation,
// a stalled MDS or a hop error — or at the end, it records where in at
// and hands control back with sim.(*Proc).ResumeHere. A write the
// process has recapped re-enters the run at the step it stopped at, so
// a write has no other form. Each step pushes what the process pushed,
// so a request keeps every simulated result;
// TestChandleRunMatchesStraightLine checks this against the
// straight-line code.
type request struct {
	c    *Client
	h    *chandle // the handle of a Read, Write or Close; an Open's new handle
	p    *sim.Proc
	t    *cpu.Thread
	span *obs.Span

	kind     vfsapi.Kind
	off, n   int64
	err      error       // the result's error; a fill's error while it runs
	fetchLen int64       // a read's readahead window
	fetch    cache.Fetch // a read's miss loop
	op       cluster.Op  // a fill's backend read (handRetry)
	at       hand

	ins      extent.Extent // the range an insert step records resident
	insThen  func()        // and the step after it
	since    time.Duration // when a throttle wait began
	recapped func()        // the step a write re-enters after its recap (handRecap)

	path  string          // an Open's path; a Close's pushed path
	flags vfsapi.OpenFlag // an Open's flags
	info  vfsapi.FileInfo // an Open's attributes
	ino   uint64          // and ino
	meta  *cluster.MetaRun

	sc    obs.Scope // the operation's client-layer crossing, exited by done
	reply func()    // a transport's reply, started by done; nil resumes the process

	// Reusable continuations, bound once per pooled request.
	readOp, touched, claimed, copied       func()
	writeOp, reinserted, inserted, evicted func()
	markNext, marked, served               func()
	waited, fillWired, removed             func()
	released, failed, throttled            func()
	read                                   func(error)
	attempt                                func(try, member int) error
	openOp, looked                         func()
	closeOp, wired, pushed                 func()
}

func (c *Client) getRequest(ctx vfsapi.Ctx, h *chandle, reply func(), kind vfsapi.Kind, off, n int64) *request {
	var r *request
	if k := len(c.requests); k > 0 {
		r = c.requests[k-1]
		c.requests = c.requests[:k-1]
	} else {
		r = &request{c: c}
		r.fetch.Steps = r
		r.readOp, r.touched, r.claimed, r.copied = r.afterReadOp, r.touch, r.claim, r.insert
		r.writeOp, r.reinserted, r.inserted, r.evicted = r.afterWriteOp, r.reinsert, r.afterInsert, r.evict
		r.markNext, r.marked, r.served = r.markLocked, r.afterMark, r.done
		r.waited, r.fillWired, r.removed = r.afterWait, r.readBackend, r.afterRemove
		r.released, r.failed, r.throttled = r.release, r.fail, r.afterThrottle
		r.read, r.attempt = r.afterRead, r.readAttempt
		r.openOp, r.looked = r.afterOpenOp, r.lookup
		r.closeOp, r.wired, r.pushed = r.afterCloseOp, r.push, r.afterPush
	}
	r.h, r.p, r.t, r.span, r.sc, r.reply = h, ctx.P, ctx.T, ctx.Span, ctx.Span.Enter(obs.LayerClient), reply
	r.kind, r.off, r.n, r.err, r.fetchLen = kind, off, n, nil, 0
	return r
}

func (c *Client) putRequest(r *request) {
	r.h, r.p, r.t, r.span, r.sc, r.reply = nil, nil, nil, nil, obs.Scope{}, nil
	r.path, r.info, r.err, r.meta, r.insThen, r.recapped = "", vfsapi.FileInfo{}, nil, nil, nil, nil
	c.requests = append(c.requests, r)
}

// ctx is the context of the run's process.
func (r *request) ctx() vfsapi.Ctx { return vfsapi.Ctx{P: r.p, T: r.t, Span: r.span} }

// handBack records where the run stopped and resumes the process.
func (r *request) handBack(at hand) {
	r.at = at
	r.p.ResumeHere()
}

// done ends a request with its result in n and err: it exits the client
// layer and, under a transport that passed its reply, starts the reply
// chain, whose end resumes the process; otherwise it resumes the
// process at once.
func (r *request) done() {
	r.sc.Exit()
	if r.reply != nil {
		r.at = handDone
		r.reply()
		return
	}
	r.handBack(handDone)
}

// end ends the request in its process with n and err.
func (r *request) end(n int64, err error) {
	r.n, r.err = n, err
	r.sc.Exit()
	r.at = handDone
}

// Finish goes on in the process from where the run handed control back
// (see vfsapi.Run): the Retrier of a fill, a write's recap, the rest of
// an open or a close's size push.
func (r *request) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	if r.kind == vfsapi.OpOpen {
		return r.finishOpen(ctx)
	}
	n, err := r.finish(ctx)
	return vfsapi.Result{N: n}, err
}

// finish is Finish of a Read, Write or Close. Where the blocking code
// ends in a step of the run — the rest of a fill, a recapped write — it
// starts that step and parks again, until the request is over. A write
// whose handle went stale fails here, after the crash check's charge.
func (r *request) finish(ctx vfsapi.Ctx) (int64, error) {
	h, c := r.h, r.c
	r.reply = nil // from here the process waits for the request's end
	for {
		switch r.at {
		case handDone:
			n, err := r.n, r.err
			c.putRequest(r)
			return n, err
		case handRetry:
			r.backendRead(c.retry.Retry(ctx, &r.op, r.err, r.attempt))
			ctx.P.Park()
		case handMeta:
			r.meta.Finish()
			c.sizePushed(r.path, h.f)
			r.end(0, nil)
		case handRecap:
			if err := h.failIfStale(ctx); err != nil {
				r.end(0, err)
				continue
			}
			h.recap(ctx)
			r.recapped()
			ctx.P.Park()
		}
	}
}

// finishOpen is Finish of an Open: its handle, or the blocking rest of
// the open from the hand-back.
func (r *request) finishOpen(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	c := r.c
	at, h, path, flags, info, ino, err, sc := r.at, r.h, r.path, r.flags, r.info, r.ino, r.err, r.sc
	c.putRequest(r)
	if at == handDone {
		if err != nil {
			return vfsapi.Result{}, err
		}
		return vfsapi.Result{H: h}, nil
	}
	defer sc.Exit()
	var nh vfsapi.Handle
	switch at {
	case handLookup:
		info, ino, err = c.lookupMiss(ctx, path)
		nh, err = c.opened(ctx, path, flags, info, ino, err)
	case handCaps:
		nh, err = c.capped(ctx, path, flags, info, ino)
	case handTrunc:
		nh, err = c.newHandle(ctx, path, flags, info, ino)
	}
	return vfsapi.Result{H: nh}, err
}

// locked chains step holding client_lock, then calls then.
func (r *request) locked(then func(), step cpu.Step) {
	r.t.LockedChainThen(r.p, r.c.clientLock, r.span, "client_lock", then, step)
}

// unlock releases client_lock, held for the step that just ended.
func (r *request) unlock() { r.c.clientLock.Unlock(r.p) }

// start begins the run with the operation's CPU charge.
func (r *request) start() {
	var then func()
	switch r.kind {
	case vfsapi.OpOpen:
		then = r.openOp
	case vfsapi.OpRead:
		then = r.readOp
	case vfsapi.OpWrite:
		then = r.writeOp
	case vfsapi.OpClose:
		then = r.closeOp
	}
	r.t.LockedChainThen(r.p, nil, nil, "", then, r.c.opStep())
}

// afterReadOp clamps the read at the end of file and touches the file.
func (r *request) afterReadOp() {
	f := r.h.f
	if r.off+r.n > f.Size {
		r.n = f.Size - r.off
	}
	if r.n <= 0 {
		r.n = 0
		r.done()
		return
	}
	r.locked(r.touched, r.c.holdStep())
}

// touch marks the file recently used, grows the readahead window and
// claims the range.
func (r *request) touch() {
	h := r.h
	h.c.cache.Touch(h.f)
	r.unlock()
	// Readahead (libcephfs prefetches on sequential streams): grow the
	// fetch window while the stream stays sequential.
	r.fetchLen = h.ra.Extend(r.off, r.n, h.f.Size, cache.MaxReadahead)
	r.Reclaim()
}

// Reclaim fails a read whose handle went stale, after the crash check's
// charge, or claims the first missing range of its window under
// client_lock (cache.FetchSteps).
func (r *request) Reclaim() {
	if r.h.stale() {
		r.err = ErrCrashed
		r.t.LockedChainThen(r.p, nil, nil, "", r.failed, r.c.opStep())
		return
	}
	r.locked(r.claimed, r.c.holdStep())
}

// fail ends the read-miss loop with the error of a crash check.
func (r *request) fail() { r.Fetched(r.err) }

// claim goes on from the claim: a resident window is copied out, a miss
// or an in-flight fetch goes on in the read-miss loop.
func (r *request) claim() {
	g, wait := r.h.f.Claim(r.off, r.fetchLen)
	r.unlock()
	r.fetch.Claimed(g, wait)
}

// WaitFetch waits on fetchQ for another reader's fetch of part of the
// window (cache.FetchSteps).
func (r *request) WaitFetch() {
	r.c.fetchQ.WaitTimeoutThen(r.p, r.c.params.DirtyThrottleCheck, r.waited)
}

func (r *request) afterWait() { r.fetch.Filled(nil) }

// Fill fetches g from the backend, charging the message's wire costs
// first (cache.FetchSteps).
func (r *request) Fill(g extent.Extent) {
	steps := r.c.wireSteps(r.t, g.Len)
	r.t.LockedChainThen(r.p, nil, nil, "", r.fillWired, steps[:]...)
}

// readBackend makes the first attempt of the fill's bounded backend
// read (see cluster.Retrier.Do): a breaker denial fails the fill at
// once; a crashed client and a failed attempt hand back, and the
// Retrier goes on in the process.
func (r *request) readBackend() {
	c := r.c
	op, err := c.retry.Begin(true)
	if err != nil {
		r.backendRead(err)
		return
	}
	r.op = op
	if !c.retry.Ready(&r.op) {
		r.err = nil
		r.handBack(handRetry)
		return
	}
	c.clus.ReadThen(r.ctx(), r.h.f.Ino, r.fetch.G.Off, r.fetch.G.Len, r.read)
}

// afterRead ends the first attempt of the backend read.
func (r *request) afterRead(err error) {
	if err != nil {
		r.err = err
		r.handBack(handRetry)
		return
	}
	r.c.retry.Succeeded(&r.op)
	r.backendRead(nil)
}

// readAttempt is the Retrier's attempt of a fill's read: routed to the
// least-degraded member first, then cycling through the group.
func (r *request) readAttempt(try, member int) error {
	ctx, g := r.ctx(), r.fetch.G
	if try == 0 {
		return r.c.clus.Read(ctx, r.h.f.Ino, g.Off, g.Len)
	}
	return r.c.clus.ReadReplica(ctx, r.h.f.Ino, g.Off, g.Len, member)
}

// backendRead goes on with a fill whose backend read ended with err. A
// reader the client's crash caught parked fails, after the crash check's
// charge, rather than insert into the restarted incarnation's cache; a
// good read is inserted. The claim is released either way, or its
// waiters would park forever.
func (r *request) backendRead(err error) {
	c := r.c
	r.err = err
	switch {
	case err == nil && r.h.stale():
		r.err = ErrCrashed
		r.t.LockedChainThen(r.p, nil, nil, "", r.released, c.opStep())
	case err == nil:
		c.stats.MissBytes += r.fetch.G.Len
		r.insertThen(r.fetch.G, r.released)
	default:
		r.release()
	}
}

// release takes client_lock to release the fill's claim.
func (r *request) release() { r.locked(r.removed, r.c.holdStep()) }

// afterRemove releases the claim and wakes the readers waiting on it.
func (r *request) afterRemove() {
	g := r.fetch.G
	r.h.f.Fetching.Remove(g.Off, g.Len)
	r.unlock()
	r.c.fetchQ.Broadcast()
	r.fetch.Filled(r.err)
}

// Fetched ends the read-miss loop: with the window resident, the copy
// out of the object cache, partially under client_lock; with an error,
// the read (cache.FetchSteps).
func (r *request) Fetched(err error) {
	if err != nil {
		r.n, r.err = 0, err
		r.done()
		return
	}
	c := r.c
	c.stats.ReadBytes += r.n
	locked, unlocked := c.copySteps(r.n, false)
	r.t.LockedChainThen(r.p, c.clientLock, r.span, "client_lock", r.served, locked, unlocked)
}

// afterWriteOp copies the data into the cache, unless the handle must
// recap first.
func (r *request) afterWriteOp() {
	h := r.h
	if h.mustRecap() {
		r.recapped = r.writeOp
		r.handBack(handRecap)
		return
	}
	h.wrote = true
	h.c.stats.WriteBytes += r.n
	locked, unlocked := h.c.copySteps(r.n, true)
	r.t.LockedChainThen(r.p, h.c.clientLock, r.span, "client_lock", r.copied, locked, unlocked)
}

// insert records the copied range resident, unless the handle went
// stale or must recap while the copy waited on client_lock.
func (r *request) insert() {
	h := r.h
	if h.stale() || h.mustRecap() {
		r.recapped = r.reinserted
		r.handBack(handRecap)
		return
	}
	r.reinsert()
}

// reinsert records the copied range resident, then marks it dirty. A
// write recapped after its copy re-enters here, past insert's checks: it
// inserts on the cfile its recap ended on, even where its client crashed
// during the recap, as the straight-line write does
// (TestChandleRunMatchesStraightLine).
func (r *request) reinsert() { r.insertThen(extent.Extent{Off: r.off, Len: r.n}, r.markNext) }

// insertThen takes client_lock to record ext resident, then calls then.
func (r *request) insertThen(ext extent.Extent, then func()) {
	r.ins, r.insThen = ext, then
	r.locked(r.inserted, r.c.holdStep())
}

// afterInsert evicts cold clean data when the cache is over its limit.
func (r *request) afterInsert() {
	c := r.c
	c.cache.Insert(r.h.f, r.ins.Off, r.ins.Len)
	r.unlock()
	if c.cache.Over() {
		r.locked(r.evicted, c.holdStep())
		return
	}
	r.insThen()
}

func (r *request) evict() {
	r.c.cache.Evict()
	r.unlock()
	r.insThen()
}

// markLocked grows the size view and takes client_lock to mark the
// range dirty.
func (r *request) markLocked() {
	if f, end := r.h.f, r.off+r.n; end > f.Size {
		f.Size = end
	}
	r.locked(r.marked, r.c.holdStep())
}

// afterMark marks the range dirty, unless RevokeCaps dropped the cfile
// first: the writer then recaps and inserts again on a current one. A
// marked write wakes the flushers once dirty data passes half the dirty
// limit, and throttles the writer.
func (r *request) afterMark() {
	c, f := r.c, r.h.f
	revoked := f.X.revoked
	if !revoked {
		c.cache.MarkDirty(f, r.off, r.n, c.eng.Now())
	}
	r.unlock()
	if revoked {
		r.recapped = r.reinserted
		r.handBack(handRecap)
		return
	}
	if c.cache.DirtyBytes >= c.cfg.MaxDirty/2 {
		c.flushQ.Broadcast()
	}
	r.throttle()
}

// throttle holds the writer on throttleQ, as I/O wait, while the dirty
// data is over the limit, then ends the write.
func (r *request) throttle() {
	c := r.c
	if !c.overDirty() {
		r.done()
		return
	}
	r.since = c.eng.Now()
	c.throttleQ.WaitTimeoutThen(r.p, c.params.DirtyThrottleCheck, r.throttled)
}

func (r *request) afterThrottle() {
	r.t.Account().AddIOWait(r.c.eng.Now() - r.since)
	r.throttle()
}

// afterOpenOp takes client_lock to look the path up in the attribute
// cache.
func (r *request) afterOpenOp() { r.locked(r.looked, r.c.holdStep()) }

// lookup opens a file whose attributes are cached and whose caps need
// no revocation; a miss, a directory, a conflict and a truncation go
// back to the process.
func (r *request) lookup() {
	c := r.c
	e, hit := c.attrs[r.path]
	r.unlock()
	if !hit {
		r.handBack(handLookup)
		return
	}
	r.info, r.ino = e.info, e.ino
	switch {
	case e.info.IsDir:
		r.err = vfsapi.ErrIsDir
	case !c.clus.TryAcquireCaps(e.ino, capKind(r.flags), c):
		r.handBack(handCaps)
		return
	case truncates(r.flags):
		r.handBack(handTrunc)
		return
	default:
		f, _ := c.cache.File(e.ino, e.info.Size)
		r.h = c.handle(r.path, r.flags, f)
	}
	r.done()
}

// afterCloseOp pushes a written file's size to the MDS: it charges the
// message's wire costs first.
func (r *request) afterCloseOp() {
	c, f := r.c, r.h.f
	path, ok := c.paths[f.Ino]
	if !r.h.wrote || f.Unlinked || !ok {
		r.done()
		return
	}
	r.path = path
	steps := c.wireSteps(r.t, 256)
	r.t.LockedChainThen(r.p, nil, nil, "", r.wired, steps[:]...)
}

// push sends the size to the MDS; a stalled MDS or a hop error hands
// back in the MDS run, which the process finishes.
func (r *request) push() {
	r.at = handMeta
	r.meta = r.c.clus.StartMeta(r.ctx(), cluster.MetaQuery{Op: cluster.MetaSetSize, Path: r.path, Size: r.h.f.Size}, r.pushed)
}

// afterPush updates the cached attribute once the MDS has the size.
func (r *request) afterPush() {
	r.meta.Finish()
	r.c.sizePushed(r.path, r.h.f)
	r.done()
}
