package cephclient

import (
	"repro/internal/cache"
	"repro/internal/cacherun"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/obs"
	"repro/internal/vfsapi"
)

// The run's own hand-back points (see finish and finishOpen).
const (
	handRecap  = cacherun.HandOwn + iota // a write must recap, or its handle went stale: fail a stale one, else recap and re-enter the run at recapped
	handLookup                           // an open's path is not in the attribute cache: the MDS lookup
	handCaps                             // an open's caps conflict with another holder's: acquire them, revoking
	handTrunc                            // an open truncates: make the handle, truncating
)

// request carries one Open, Read, Write or Close while its process
// stays parked, as a cacherun.Run over the client's step table (see
// New):
//
//	Open:  op CPU → client_lock + attribute lookup → caps → handle
//	Read:  op CPU → client_lock + Touch → the read-miss loop → locked copy
//	Write: op CPU → locked copy → insert → size → client_lock +
//	       MarkDirty → flusher wake → the throttle
//	Close: op CPU (→ the size push of a written file)
//
// A write the process has recapped re-enters the run at the step it
// stopped at, so a write has no other form.
type request struct {
	cacherun.Run[revocation]
	c        *Client
	h        *chandle  // the handle of a Read, Write or Close; an Open's new handle
	sc       obs.Scope // the operation's client-layer crossing, exited by End
	recapped func()    // the step a write re-enters after its recap (handRecap)

	// Reusable continuations, bound once per pooled request.
	readOp, touched, writeOp, copied, reinserted func()
	markNext, marked, served, openOp, looked     func()
	closeOp                                      func()
}

func (c *Client) getRequest(ctx vfsapi.Ctx, h *chandle, reply func(), kind vfsapi.Kind, off, n int64) *request {
	var r *request
	if k := len(c.requests); k > 0 {
		r = c.requests[k-1]
		c.requests = c.requests[:k-1]
	} else {
		r = c.newRequest()
	}
	r.Reset(ctx, kind, off, n)
	r.h, r.sc, r.Reply = h, ctx.Span.Enter(obs.LayerClient), reply
	return r
}

// newRequest makes a request for the pool, in a frame of its own:
// getRequest runs on every operation's process stack.
func (c *Client) newRequest() *request {
	r := &request{c: c}
	r.Init(&c.steps, r)
	r.readOp, r.touched, r.writeOp, r.copied, r.reinserted = r.afterReadOp, r.touch, r.afterWriteOp, r.insert, r.reinsert
	r.markNext, r.marked, r.served, r.openOp, r.looked = r.markLocked, r.afterMark, r.End, r.afterOpenOp, r.lookup
	r.closeOp = r.afterCloseOp
	return r
}

func (c *Client) putRequest(r *request) {
	r.Clear()
	r.h, r.sc, r.recapped = nil, obs.Scope{}, nil
	c.requests = append(c.requests, r)
}

// End exits the client layer and ends the run (see cacherun.Run.Done):
// under a transport that passed its reply, the reply chain's end
// resumes the process.
func (r *request) End() {
	r.sc.Exit()
	r.Done()
}

// end ends the request in its process with n and err.
func (r *request) end(n int64, err error) {
	r.N, r.Err = n, err
	r.sc.Exit()
	r.At = cacherun.HandDone
}

// Finish goes on in the process from where the run handed control back
// (see vfsapi.Run): the Retrier of a fill, a write's recap, the rest of
// an open or a close's size push.
func (r *request) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	if r.Kind == vfsapi.OpOpen {
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
	r.Reply = nil // from here the process waits for the request's end
	for {
		switch r.At {
		case cacherun.HandDone:
			n, err := r.N, r.Err
			c.putRequest(r)
			return n, err
		case cacherun.HandRetry:
			r.Filled(r.Retry(ctx))
			ctx.P.Park()
		case cacherun.HandMeta:
			r.end(0, r.PushEnd())
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
	at, h, path, flags, info, ino, err, sc := r.At, r.h, r.Path, r.Flags, r.Info, r.Ino, r.Err, r.sc
	c.putRequest(r)
	if at == cacherun.HandDone {
		if err != nil {
			return vfsapi.Result{}, err
		}
		return vfsapi.Result{H: h}, nil
	}
	defer sc.Exit()
	var nh vfsapi.Handle
	switch at {
	case handLookup:
		info, ino, err = c.names.Fetch(ctx, path)
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
	r.T.LockedChainThen(r.P, r.c.clientLock, r.Span, "client_lock", then, step)
}

// unlock releases client_lock, held for the step that just ended.
func (r *request) unlock() { r.c.clientLock.Unlock(r.P) }

// start begins the run with the operation's CPU charge.
func (r *request) start() {
	var then func()
	switch r.Kind {
	case vfsapi.OpOpen:
		then = r.openOp
	case vfsapi.OpRead:
		then = r.readOp
	case vfsapi.OpWrite:
		then = r.writeOp
	case vfsapi.OpClose:
		then = r.closeOp
	}
	r.T.LockedChainThen(r.P, nil, nil, "", then, r.c.opStep())
}

// The request's cacherun.Client steps besides End: File, Check, Fill,
// Fetched, Throttled and PushSize.

func (r *request) File() *cfile    { return r.h.f }
func (r *request) Fill()           { r.Fetch() }
func (r *request) Throttled()      { r.End() }
func (r *request) PushSize() int64 { return r.h.f.Size } // the current size view

// Check fails a read whose handle went stale with a crash.
func (r *request) Check() error {
	if r.h.stale() {
		return ErrCrashed
	}
	return nil
}

// afterReadOp clamps the read at the end of file and touches the file.
func (r *request) afterReadOp() {
	f := r.h.f
	if r.Off+r.N > f.Size {
		r.N = f.Size - r.Off
	}
	if r.N <= 0 {
		r.N = 0
		r.End()
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
	r.FetchLen = h.ra.Extend(r.Off, r.N, h.f.Size, cache.MaxReadahead)
	r.Reclaim()
}

// Fetched copies the window out, partially under client_lock.
func (r *request) Fetched() {
	c := r.c
	c.stats.ReadBytes += r.N
	locked, unlocked := c.copySteps(r.N, false)
	r.T.LockedChainThen(r.P, c.clientLock, r.Span, "client_lock", r.served, locked, unlocked)
}

// afterWriteOp copies the data into the cache, unless the handle must
// recap first.
func (r *request) afterWriteOp() {
	h := r.h
	if h.mustRecap() {
		r.recapped = r.writeOp
		r.HandBack(handRecap)
		return
	}
	h.wrote = true
	h.c.stats.WriteBytes += r.N
	locked, unlocked := h.c.copySteps(r.N, true)
	r.T.LockedChainThen(r.P, h.c.clientLock, r.Span, "client_lock", r.copied, locked, unlocked)
}

// insert records the copied range resident, unless the handle went
// stale or must recap while the copy waited on client_lock.
func (r *request) insert() {
	h := r.h
	if h.stale() || h.mustRecap() {
		r.recapped = r.reinserted
		r.HandBack(handRecap)
		return
	}
	r.reinsert()
}

// reinsert records the copied range resident, then marks it dirty. A
// write recapped after its copy re-enters here, past insert's checks: it
// inserts on the cfile its recap ended on, even where its client crashed
// during the recap, as the straight-line write does
// (TestChandleRunMatchesStraightLine).
func (r *request) reinsert() { r.InsertThen(extent.Extent{Off: r.Off, Len: r.N}, r.markNext) }

// markLocked grows the size view and takes client_lock to mark the
// range dirty.
func (r *request) markLocked() {
	if f, end := r.h.f, r.Off+r.N; end > f.Size {
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
		c.cache.MarkDirty(f, r.Off, r.N, c.eng.Now())
	}
	r.unlock()
	if revoked {
		r.recapped = r.reinserted
		r.HandBack(handRecap)
		return
	}
	if c.cache.DirtyBytes >= c.cfg.MaxDirty/2 {
		c.flushQ.Broadcast()
	}
	r.Throttle(0)
}

// afterOpenOp takes client_lock to look the path up in the attribute
// cache.
func (r *request) afterOpenOp() { r.locked(r.looked, r.c.holdStep()) }

// lookup opens a file whose attributes are cached and whose caps need
// no revocation; a miss, a directory, a conflict and a truncation go
// back to the process.
func (r *request) lookup() {
	c := r.c
	info, ino, hit := c.names.Cached(r.Path)
	r.unlock()
	if !hit {
		r.HandBack(handLookup)
		return
	}
	r.Info, r.Ino = info, ino
	switch {
	case info.IsDir:
		r.Err = vfsapi.ErrIsDir
	case !c.clus.TryAcquireCaps(ino, capKind(r.Flags), c):
		r.HandBack(handCaps)
		return
	case r.Flags.Truncates():
		r.HandBack(handTrunc)
		return
	default:
		f, _ := c.cache.File(ino, info.Size)
		r.h = c.handle(r.Path, r.Flags, f)
	}
	r.End()
}

// afterCloseOp pushes a written file's size to the MDS.
func (r *request) afterCloseOp() {
	c, f := r.c, r.h.f
	path, ok := c.names.Path(f.Ino)
	if !r.h.wrote || f.Unlinked || !ok {
		r.End()
		return
	}
	r.Push(path)
}
