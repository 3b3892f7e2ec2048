package cephclient

import (
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
	handDone     hand = iota // served from the cache: return the result
	handEOF                  // a read at or past the end of file: return 0
	handLoop                 // a stale handle, a recap or a revoked mark: the blocking loop from its top
	handFetch                // a read's claim waits or misses: the fetch loop from that claim
	handRecap                // a write must recap before its copy
	handThrottle             // a write is over the dirty limit
	handLookup               // an open's path is not in the attribute cache: the MDS lookup
	handCaps                 // an open's caps conflict with another holder's: acquire them, revoking
	handTrunc                // an open truncates: make the handle, truncating
	handMeta                 // a close's size push handed back in the MDS run: finish it
)

// request carries the cache-hit part of one Open, Read, Write or Close
// while its process stays parked. Each step is a chain on the caller's
// thread whose continuation runs at the event where the straight-line
// code resumed the process, does what the process did there, and starts
// the next chain:
//
//	Open:  op CPU → client_lock + attribute lookup → caps → handle
//	Read:  op CPU → client_lock + Touch → client_lock + Claim → locked copy
//	Write: op CPU → locked copy → client_lock + Insert (+ client_lock +
//	       Evict when Over) → size → client_lock + MarkDirty → flusher wake
//	Close: op CPU (→ wire → the MDS size push (cluster.MetaRun) →
//	       attribute update, for a written file)
//
// At the first decision that needs the process — EOF, a stale handle, a
// recap, a claim that waits or fetches, a revoked mark, the dirty
// throttle, an attribute miss, a caps conflict, a truncation, a stalled
// MDS or a hop error — or at the end, it records where in at and hands
// control back with sim.(*Proc).ResumeHere. Each step pushes what the
// process pushed, so a request keeps every simulated result;
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
	fetchLen int64         // a read's readahead window
	g        extent.Extent // a read's claim (handFetch)
	wait     bool          // the claim waits on fetchQ (handFetch)
	at       hand

	path  string          // an Open's path; a Close's pushed path
	flags vfsapi.OpenFlag // an Open's flags
	info  vfsapi.FileInfo // an Open's attributes
	ino   uint64          // and ino
	err   error           // an Open's error
	meta  *cluster.MetaRun

	sc    obs.Scope // the operation's client-layer crossing, exited by done
	reply func()    // a transport's reply, started by done; nil resumes the process

	// Reusable continuations, bound once per pooled request.
	readOp, touched, claimed  func()
	writeOp, copied, inserted func()
	evicted, marked, served   func()
	openOp, looked            func()
	closeOp, wired, pushed    func()
}

func (c *Client) getRequest(ctx vfsapi.Ctx, h *chandle, reply func(), kind vfsapi.Kind, off, n int64) *request {
	var r *request
	if k := len(c.requests); k > 0 {
		r = c.requests[k-1]
		c.requests = c.requests[:k-1]
	} else {
		r = &request{c: c}
		r.readOp, r.touched, r.claimed = r.afterReadOp, r.touch, r.claim
		r.writeOp, r.copied, r.inserted = r.afterWriteOp, r.insert, r.afterInsert
		r.evicted, r.marked, r.served = r.evict, r.afterMark, r.done
		r.openOp, r.looked = r.afterOpenOp, r.lookup
		r.closeOp, r.wired, r.pushed = r.afterCloseOp, r.push, r.afterPush
	}
	r.h, r.p, r.t, r.span, r.sc, r.reply = h, ctx.P, ctx.T, ctx.Span, ctx.Span.Enter(obs.LayerClient), reply
	r.kind, r.off, r.n, r.fetchLen, r.g, r.wait = kind, off, n, 0, extent.Extent{}, false
	return r
}

func (c *Client) putRequest(r *request) {
	r.h, r.p, r.t, r.span, r.sc, r.reply = nil, nil, nil, nil, obs.Scope{}, nil
	r.path, r.info, r.err, r.meta = "", vfsapi.FileInfo{}, nil, nil
	c.requests = append(c.requests, r)
}

// handBack records where the run stopped and resumes the process.
func (r *request) handBack(at hand) {
	r.at = at
	r.p.ResumeHere()
}

// done ends a request served from the cache: it exits the client layer
// and, under a transport that passed its reply, starts the reply chain,
// whose end resumes the process; otherwise it resumes the process at
// once.
func (r *request) done() {
	r.sc.Exit()
	if r.reply != nil {
		r.at = handDone
		r.reply()
		return
	}
	r.handBack(handDone)
}

// Finish goes on in the process from where the run handed control back
// (see vfsapi.Run): the fetch loop of a read, the write loop, a recap,
// the dirty throttle, the rest of an open or a close's size push.
func (r *request) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	if r.kind == vfsapi.OpOpen {
		return r.finishOpen(ctx)
	}
	n, err := r.finish(ctx)
	return vfsapi.Result{N: n}, err
}

// finish is Finish of a Read, Write or Close.
func (r *request) finish(ctx vfsapi.Ctx) (int64, error) {
	h, c := r.h, r.c
	at, kind, off, n, fetchLen, g, wait, path, meta, sc := r.at, r.kind, r.off, r.n, r.fetchLen, r.g, r.wait, r.path, r.meta, r.sc
	c.putRequest(r)
	if at == handDone {
		return n, nil // the run exited the client layer
	}
	defer sc.Exit()
	switch at {
	case handEOF:
		return 0, nil
	case handThrottle:
		c.throttle(ctx)
		return n, nil
	case handMeta:
		meta.Finish()
		c.sizePushed(path, h.f)
		return 0, nil
	case handRecap:
		h.recap(ctx)
		h.accept(n)
		c.copyData(ctx, n, true)
	case handLoop:
		if kind == vfsapi.OpRead {
			// The handle went stale before the run's claim: the crash
			// check and the claim, as the fetch loop makes them after
			// each wait.
			if err := h.failIfStale(ctx); err != nil {
				return 0, err
			}
			g, wait = h.claim(ctx, off, fetchLen)
		}
	}
	if kind == vfsapi.OpWrite {
		return h.dirty(ctx, off, n)
	}
	return h.fetchAndCopy(ctx, off, n, fetchLen, g, wait)
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
	if r.off >= f.Size {
		r.handBack(handEOF)
		return
	}
	if r.off+r.n > f.Size {
		r.n = f.Size - r.off
	}
	if r.n <= 0 {
		r.handBack(handEOF)
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
	if h.stale() {
		r.handBack(handLoop)
		return
	}
	r.locked(r.claimed, h.c.holdStep())
}

// claim copies out a fully cached range; a miss or an in-flight fetch
// goes back to the process.
func (r *request) claim() {
	c := r.c
	r.g, r.wait = r.h.f.Claim(r.off, r.fetchLen)
	r.unlock()
	if r.wait || r.g.Len > 0 {
		r.handBack(handFetch)
		return
	}
	c.stats.ReadBytes += r.n
	locked, unlocked := c.copySteps(r.n, false)
	r.t.LockedChainThen(r.p, c.clientLock, r.span, "client_lock", r.served, locked, unlocked)
}

// afterWriteOp copies the data into the cache, unless the handle must
// recap first.
func (r *request) afterWriteOp() {
	h := r.h
	if h.mustRecap() {
		r.handBack(handRecap)
		return
	}
	h.accept(r.n)
	locked, unlocked := h.c.copySteps(r.n, true)
	r.t.LockedChainThen(r.p, h.c.clientLock, r.span, "client_lock", r.copied, locked, unlocked)
}

// insert records the copied range resident, unless the handle went
// stale or must recap while the copy waited on client_lock.
func (r *request) insert() {
	h := r.h
	if h.stale() || h.mustRecap() {
		r.handBack(handLoop)
		return
	}
	r.locked(r.inserted, h.c.holdStep())
}

// afterInsert evicts cold clean data when the cache is over its limit.
func (r *request) afterInsert() {
	c := r.c
	c.cache.Insert(r.h.f, r.off, r.n)
	r.unlock()
	if c.cache.Over() {
		r.locked(r.evicted, c.holdStep())
		return
	}
	r.markLocked()
}

func (r *request) evict() {
	r.h.c.cache.Evict()
	r.unlock()
	r.markLocked()
}

// markLocked grows the size view and takes client_lock to mark the
// range dirty.
func (r *request) markLocked() {
	r.h.grow(r.off + r.n)
	r.locked(r.marked, r.c.holdStep())
}

// afterMark wakes the flushers; a revoked mark and the dirty throttle go
// back to the process.
func (r *request) afterMark() {
	c := r.c
	marked := c.mark(r.h.f, r.off, r.n)
	r.unlock()
	if !marked {
		r.handBack(handLoop)
		return
	}
	c.wakeFlushers()
	if c.overDirty() {
		r.handBack(handThrottle)
		return
	}
	r.done()
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
	r.meta = r.c.clus.StartMeta(vfsapi.Ctx{P: r.p, T: r.t, Span: r.span}, cluster.MetaQuery{Op: cluster.MetaSetSize, Path: r.path, Size: r.h.f.Size}, r.pushed)
}

// afterPush updates the cached attribute once the MDS has the size.
func (r *request) afterPush() {
	r.meta.Finish()
	r.c.sizePushed(r.path, r.h.f)
	r.done()
}
