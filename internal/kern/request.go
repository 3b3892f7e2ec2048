package kern

import (
	"time"

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
	handDone     hand = iota // the run served the system call: return its result
	handTop                  // the blocking operation from its top
	handFetch                // a read's first claim waits or misses: the fetch loop from that claim
	handEvict                // a write's insert left the cache over its limit: evict, then commit
	handCommit               // a write's insert found a stale ledger entry: commit
	handThrottle             // a write must throttle, then return its result
	handWritten              // a write's mark found a stale ledger entry, or its handle went stale
)

// request carries the cache-hit part of one Read, Write or Close system
// call on a page-cache handle while its process stays parked. Each step
// is a chain on the caller's thread whose continuation runs at the event
// where the straight-line code (Syscalls' entry, the pagedHandle method,
// Syscalls' exit) resumed the process, does what the process did there,
// and starts the next chain:
//
//	Read:  entry → claim → lru_lock + Touch → copy + exit
//	Write: entry → i_mutex + hold + copy → lru_lock + Insert (+ hold) →
//	       size, unlock i_mutex → wb_lock + hold + MarkDirty → flusher
//	       wake → exit
//	Close: entry → closed → exit
//
// At the first decision that needs the process — a closed or stale
// handle, DIRECT, EOF, a read claim that waits or fetches, eviction, a
// stale ledger entry, the dirty throttle, a close that pushes the size —
// or at the end, it records where in at and hands control back with
// sim.(*Proc).ResumeHere. Each step pushes what the process pushed, so a
// request keeps every simulated result; TestKernRunMatchesStraightLine
// checks this against the straight-line code.
type request struct {
	h     *pagedHandle
	p     *sim.Proc
	t     *cpu.Thread
	span  *obs.Span
	vfsOp time.Duration // the syscall layer's dispatch cost

	off, n   int64
	fetchLen int64         // a read's readahead window
	g        extent.Extent // a read's first claim (handFetch)
	wait     bool          // the claim waits on fetchQ (handFetch)
	at       hand

	// Reusable continuations, bound once per pooled request.
	readIn, touched, served                  func()
	writeIn, copied, inserted, held, dirtied func()
	closeIn                                  func()
}

func (m *Mount) getRequest(ctx vfsapi.Ctx, h *pagedHandle, vfsOp time.Duration, off, n int64) *request {
	var r *request
	if k := len(m.requests); k > 0 {
		r = m.requests[k-1]
		m.requests = m.requests[:k-1]
	} else {
		r = &request{}
		r.readIn, r.touched, r.served = r.afterReadEntry, r.touch, r.done
		r.writeIn, r.copied, r.inserted, r.held, r.dirtied = r.afterWriteEntry, r.insert, r.afterInsert, r.afterHold, r.marked
		r.closeIn = r.afterCloseEntry
	}
	r.h, r.p, r.t, r.span, r.vfsOp = h, ctx.P, ctx.T, ctx.Span, vfsOp
	r.off, r.n, r.fetchLen, r.g, r.wait = off, n, 0, extent.Extent{}, false
	return r
}

func (m *Mount) putRequest(r *request) {
	r.h, r.p, r.t, r.span = nil, nil, nil, nil
	m.requests = append(m.requests, r)
}

// handBack records where the run stopped and resumes the process.
func (r *request) handBack(at hand) {
	r.at = at
	r.p.ResumeHere()
}

// done ends a request the run served.
func (r *request) done() { r.handBack(handDone) }

// enter starts the run with the system call's entry chain: the mode
// switch and the VFS dispatch.
func (r *request) enter(then func()) {
	r.t.LockedChainThen(r.p, nil, nil, "", then, r.t.ModeSwitchStep(), cpu.Charge(cpu.Kernel, r.vfsOp))
}

// exit ends the run with the system call's exit mode switch.
func (r *request) exit() {
	r.t.LockedChainThen(r.p, nil, nil, "", r.served, r.t.ModeSwitchStep())
}

// afterReadEntry grows the readahead window and claims the range; a
// fully cached range goes on under lru_lock, anything else goes back to
// the process.
func (r *request) afterReadEntry() {
	h := r.h
	if h.stale() || h.flags.Has(vfsapi.DIRECT) {
		r.handBack(handTop)
		return
	}
	n := h.readLen(r.off, r.n)
	if n <= 0 {
		r.handBack(handTop)
		return
	}
	r.n = n
	r.fetchLen = h.ra.Extend(r.off, n, h.f.Size, h.m.raWindow())
	if r.g, r.wait = h.f.Claim(r.off, r.fetchLen); r.wait || r.g.Len > 0 {
		r.handBack(handFetch)
		return
	}
	r.t.LockedChainThen(r.p, h.m.kern.lruLock, r.span, "lru_lock", r.touched)
}

// touch marks the file recently used and copies the data out.
func (r *request) touch() {
	m := r.h.m
	m.cache.Touch(r.h.f)
	m.kern.lruLock.Unlock(r.p)
	r.t.LockedChainThen(r.p, nil, nil, "", r.served, cpu.Charge(cpu.Kernel, m.kern.params.CopyTime(r.n)), r.t.ModeSwitchStep())
}

// afterWriteEntry copies the data into the cache under the inode mutex.
func (r *request) afterWriteEntry() {
	h := r.h
	if h.stale() || !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE) || r.n <= 0 || h.flags.Has(vfsapi.DIRECT) {
		r.handBack(handTop)
		return
	}
	h.wrote = true
	params := h.m.kern.params
	r.t.LockedChainThen(r.p, h.f.X, nil, "", r.copied,
		cpu.Charge(cpu.Kernel, params.IMutexHold), cpu.Charge(cpu.Kernel, params.CopyTime(r.n)))
}

// insert takes lru_lock to record the copied range resident.
func (r *request) insert() {
	r.t.LockedChainThen(r.p, r.h.m.kern.lruLock, r.span, "lru_lock", r.inserted)
}

// afterInsert charges the lock hold of the pages the insert added; a
// stale ledger entry goes back to the process.
func (r *request) afterInsert() {
	m := r.h.m
	if m.cache.Stale(r.h.f) {
		m.kern.lruLock.Unlock(r.p)
		r.handBack(handCommit)
		return
	}
	if hold := m.insert(r.h.f, r.off, r.n); hold > 0 {
		r.t.LockedChainThen(r.p, nil, nil, "", r.held, cpu.Charge(cpu.Kernel, hold))
		return
	}
	r.afterHold()
}

// afterHold releases lru_lock, grows the size, releases the inode mutex
// and takes wb_lock to mark the range dirty; an eviction goes back to
// the process.
func (r *request) afterHold() {
	h := r.h
	k := h.m.kern
	k.lruLock.Unlock(r.p)
	if h.m.cache.Over() {
		r.handBack(handEvict)
		return
	}
	h.grow(r.off + r.n)
	h.f.X.Unlock(r.p)
	r.t.LockedChainThen(r.p, k.writebackLock, r.span, "wb_lock", r.dirtied, cpu.Charge(cpu.Kernel, k.params.WritebackLockHold))
}

// marked records the range dirty and returns from the system call; a
// stale ledger entry or handle and the dirty throttle go back to the
// process.
func (r *request) marked() {
	h := r.h
	switch {
	case !h.m.mark(r.p, h.f, r.off, r.n):
		r.handBack(handWritten)
	case h.m.mustThrottle(r.n):
		r.handBack(handThrottle)
	case h.stale():
		r.handBack(handWritten)
	default:
		r.exit()
	}
}

// afterCloseEntry closes a handle that has no size to push.
func (r *request) afterCloseEntry() {
	h := r.h
	if h.stale() || h.wrote && !h.f.Unlinked {
		r.handBack(handTop)
		return
	}
	h.closed = true
	r.exit()
}

// syscall is Syscalls' Read, Write or Close c on h: the syscall scope
// around syscallRead, syscallWrite or syscallClose.
func (h *pagedHandle) syscall(ctx vfsapi.Ctx, vfsOp time.Duration, c *vfsapi.Call) (vfsapi.Result, error) {
	sc := ctx.Span.Enter(obs.LayerSyscall)
	var r vfsapi.Result
	var err error
	switch c.Kind {
	case vfsapi.OpRead:
		r.N, err = h.syscallRead(ctx, vfsOp, c.Off, c.N)
	case vfsapi.OpWrite:
		r.N, err = h.syscallWrite(ctx, vfsOp, c.Off, c.N)
	default:
		err = h.syscallClose(ctx, vfsOp)
	}
	sc.Exit()
	return r, err
}

// syscallRead is Syscalls' Read on h between the scope's entry and exit:
// the entry chain, the read and the exit mode switch. The cache-hit part
// runs as one request run; at a hand-back the blocking code goes on.
func (h *pagedHandle) syscallRead(ctx vfsapi.Ctx, vfsOp time.Duration, off, n int64) (int64, error) {
	m := h.m
	r := m.getRequest(ctx, h, vfsOp, off, n)
	r.enter(r.readIn)
	ctx.P.Park()
	at, got, fetchLen, g, wait := r.at, r.n, r.fetchLen, r.g, r.wait
	m.putRequest(r)
	var err error
	switch at {
	case handDone:
		return got, nil
	case handTop:
		got, err = h.Read(ctx, off, n)
	case handFetch:
		got, err = h.fetchAndCopy(ctx, off, got, fetchLen, g, wait)
	}
	ctx.T.ModeSwitch(ctx.P)
	return got, err
}

// syscallWrite is syscallRead's counterpart for Write.
func (h *pagedHandle) syscallWrite(ctx vfsapi.Ctx, vfsOp time.Duration, off, n int64) (int64, error) {
	m := h.m
	r := m.getRequest(ctx, h, vfsOp, off, n)
	r.enter(r.writeIn)
	ctx.P.Park()
	at := r.at
	m.putRequest(r)
	var got int64
	var err error
	switch at {
	case handDone:
		return n, nil
	case handTop:
		got, err = h.Write(ctx, off, n)
	case handEvict:
		m.evict(ctx)
		got, err = h.commit(ctx, off, n)
	case handCommit:
		got, err = h.commit(ctx, off, n)
	case handThrottle:
		m.throttle(ctx, n)
		got, err = h.written(ctx, n)
	case handWritten:
		got, err = h.written(ctx, n)
	}
	ctx.T.ModeSwitch(ctx.P)
	return got, err
}

// syscallClose is syscallRead's counterpart for Close.
func (h *pagedHandle) syscallClose(ctx vfsapi.Ctx, vfsOp time.Duration) error {
	m := h.m
	r := m.getRequest(ctx, h, vfsOp, 0, 0)
	r.enter(r.closeIn)
	ctx.P.Park()
	at := r.at
	m.putRequest(r)
	if at == handDone {
		return nil
	}
	err := h.Close(ctx)
	ctx.T.ModeSwitch(ctx.P)
	return err
}
