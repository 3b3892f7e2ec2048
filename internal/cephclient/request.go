package cephclient

import (
	"repro/internal/cache"
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
	handDone     hand = iota // served from the cache: return n
	handEOF                  // a read at or past the end of file: return 0
	handLoop                 // a stale handle, a recap or a revoked mark: the blocking loop from its top
	handFetch                // a read's claim waits or misses: the fetch loop from that claim
	handRecap                // a write must recap before its copy
	handThrottle             // a write is over the dirty limit
)

// request carries the cache-hit part of one Read or Write while its
// process stays parked. Each step is a chain on the caller's thread
// whose continuation runs at the event where the straight-line code
// resumed the process, does what the process did there, and starts the
// next chain:
//
//	Read:  op CPU → client_lock + Touch → client_lock + Claim → locked copy
//	Write: op CPU → locked copy → client_lock + Insert (+ client_lock +
//	       Evict when Over) → size → client_lock + MarkDirty → flusher wake
//
// At the first decision that needs the process — EOF, a stale handle, a
// recap, a claim that waits or fetches, a revoked mark, the dirty
// throttle — or at the end, it records where in at and hands control
// back with sim.(*Proc).ResumeHere. Each step pushes what the process
// pushed, so a request keeps every simulated result;
// TestChandleRunMatchesStraightLine checks this against the
// straight-line code.
type request struct {
	h    *chandle
	p    *sim.Proc
	t    *cpu.Thread
	span *obs.Span

	write    bool
	off, n   int64
	fetchLen int64         // a read's readahead window
	g        extent.Extent // a read's claim (handFetch)
	wait     bool          // the claim waits on fetchQ (handFetch)
	at       hand

	sc    obs.Scope // the operation's client-layer crossing, exited by done
	reply func()    // a transport's reply, started by done; nil resumes the process

	// Reusable continuations, bound once per pooled request.
	readOp, touched, claimed  func()
	writeOp, copied, inserted func()
	evicted, marked, served   func()
}

func (c *Client) getRequest(ctx vfsapi.Ctx, h *chandle, sc obs.Scope, reply func(), write bool, off, n int64) *request {
	var r *request
	if k := len(c.requests); k > 0 {
		r = c.requests[k-1]
		c.requests = c.requests[:k-1]
	} else {
		r = &request{}
		r.readOp, r.touched, r.claimed = r.afterReadOp, r.touch, r.claim
		r.writeOp, r.copied, r.inserted = r.afterWriteOp, r.insert, r.afterInsert
		r.evicted, r.marked, r.served = r.evict, r.afterMark, r.done
	}
	r.h, r.p, r.t, r.span, r.sc, r.reply = h, ctx.P, ctx.T, ctx.Span, sc, reply
	r.write, r.off, r.n, r.fetchLen, r.g, r.wait = write, off, n, 0, extent.Extent{}, false
	return r
}

func (c *Client) putRequest(r *request) {
	r.h, r.p, r.t, r.span, r.sc, r.reply = nil, nil, nil, nil, obs.Scope{}, nil
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
// (see vfsapi.Run): the fetch loop of a read, the write loop, a recap
// or the dirty throttle.
func (r *request) Finish(ctx vfsapi.Ctx) (int64, error) {
	h, c := r.h, r.h.c
	at, write, off, n, fetchLen, g, wait, sc := r.at, r.write, r.off, r.n, r.fetchLen, r.g, r.wait, r.sc
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
	case handRecap:
		h.recap(ctx)
		h.accept(n)
		c.copyData(ctx, n, true)
	case handLoop:
		if !write {
			// The handle went stale before the run's claim: the crash
			// check and the claim, as the fetch loop makes them after
			// each wait.
			if err := h.failIfStale(ctx); err != nil {
				return 0, err
			}
			g, wait = h.claim(ctx, off, fetchLen)
		}
	}
	if write {
		return h.dirty(ctx, off, n)
	}
	return h.fetchAndCopy(ctx, off, n, fetchLen, g, wait)
}

// locked chains step holding client_lock, then calls then.
func (r *request) locked(then func(), step cpu.Step) {
	r.t.LockedChainThen(r.p, r.h.c.clientLock, r.span, "client_lock", then, step)
}

// unlock releases client_lock, held for the step that just ended.
func (r *request) unlock() { r.h.c.clientLock.Unlock(r.p) }

// start begins the run with the operation's CPU charge.
func (r *request) start() {
	then := r.readOp
	if r.write {
		then = r.writeOp
	}
	r.t.LockedChainThen(r.p, nil, nil, "", then, r.h.c.opStep())
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
	r.locked(r.touched, r.h.c.holdStep())
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
	c := r.h.c
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
	c := r.h.c
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
	r.locked(r.marked, r.h.c.holdStep())
}

// afterMark wakes the flushers; a revoked mark and the dirty throttle go
// back to the process.
func (r *request) afterMark() {
	c := r.h.c
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
