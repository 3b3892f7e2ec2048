package kern

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
// process, and so where do goes on.
type hand uint8

const (
	handDone   hand = iota // the run served the call: return its result
	handStale              // a closed or stale handle: its error
	handDirect             // a DIRECT read or write: the store I/O
	handStore              // a fill from a store other than a kernel Ceph client's: its read
	handRetry              // a kernel Ceph client's fill failed or cannot start: the Retrier goes on with it
	handPush               // a close pushes the size of a written file
	handMeta               // an MDS run handed back: finish it, then the close's push or the open
	handCreate             // an open creates the file
	handTrunc              // an open truncates the file
)

// request carries one Open of a kernel Ceph client's mount, or one Read,
// Write or Close of a page-cache handle, while its process stays parked.
// Each step is a chain on the caller's thread whose continuation runs at
// the event where the straight-line code resumed the process, does what
// the process did there, and starts the next chain:
//
//	Open:  op CPU → attribute lookup (→ wire → the MDS lookup
//	       (cluster.MetaRun) → attribute insert, on a miss) → handle
//	Read:  [entry] → claim → the read-miss loop (cache.Fetch: fetchQ
//	       wait, or op CPU + wire → the object read (cluster.ReadRun) →
//	       lru_lock + Insert (+ hold) (→ lru_lock + Evict (+ hold) when
//	       over the limit) → release, then claim) → lru_lock + Touch →
//	       copy [+ exit]
//	Write: [entry] → i_mutex + hold + copy → lru_lock + Insert (+ hold)
//	       (→ lru_lock + Evict (+ hold) when over the limit) → size,
//	       unlock i_mutex → wb_lock + hold + MarkDirty → flusher wake
//	       → the dirty pause and hard limit (throttleQ waits) [→ exit]
//	Close: [entry] → closed (→ op CPU + wire → the MDS size push →
//	       attribute update, for a written file of a kernel Ceph
//	       client) [→ exit]
//
// Under Syscalls a Read, Write or Close begins with the system call's
// entry chain (the mode switch and the VFS dispatch) and ends with its
// exit mode switch; a bare call — a union's copy-up, an Append, a test —
// is the same run without them. An Open is a vfsapi.Run that Syscalls
// starts where its entry chain ends, with the exit chain as the reply
// (see sysRun). At the first decision that needs the process — a closed
// or stale handle, DIRECT, a fill from a store other than a kernel Ceph
// client's, an object read that fails or finds the client crashed, a
// size push the run does not make, a file to create or truncate, a
// stalled MDS or a hop error — or at the end, it records
// where in at and hands control back with sim.(*Proc).ResumeHere; a
// decision made before any chain, as a bare run's first one is, hands
// back before the process parks, and the park returns at once. Each step
// pushes what the process pushed, so a request keeps every simulated
// result; TestKernRunMatchesStraightLine checks this against the
// straight-line code.
type request struct {
	m    *Mount
	h    *pagedHandle // the handle of a Read, Write or Close; an Open's new handle
	sys  *Syscalls    // the system call the run serves; nil for a bare call
	p    *sim.Proc
	t    *cpu.Thread
	span *obs.Span

	kind     vfsapi.Kind
	off, n   int64
	err      error       // a served call's error; a fill's error while it runs
	fetchLen int64       // a read's readahead window
	fetch    cache.Fetch // a read's miss loop
	op       cluster.Op  // a fill's object read (handRetry)
	at       hand

	ins     extent.Extent // the range an insert step records resident
	insThen func()        // and the step after it
	since   time.Duration // when a throttle wait began

	path  string           // an Open's path; a Close's pushed path
	flags vfsapi.OpenFlag  // an Open's flags
	info  vfsapi.FileInfo  // an Open's attributes
	ino   uint64           // and ino
	size  int64            // a Close's pushed size
	meta  *cluster.MetaRun // the MDS run of a lookup or size push
	reply func()           // an Open's reply, started at its end; nil resumes the process

	// Reusable continuations, bound once per pooled request.
	readIn, touched, served                    func()
	writeIn, copied, inserted, held, committed func()
	evicted, dirtied, throttled                func()
	waited, fillWired, released, failed        func()
	read                                       func(error)
	attempt                                    func(try, member int) error
	closeIn, pushWired, pushed                 func()
	looked, lookupWired, metaLooked            func()
}

func (m *Mount) getRequest(ctx vfsapi.Ctx, h *pagedHandle, sys *Syscalls, kind vfsapi.Kind, off, n int64) *request {
	var r *request
	if k := len(m.requests); k > 0 {
		r = m.requests[k-1]
		m.requests = m.requests[:k-1]
	} else {
		r = &request{m: m}
		r.fetch.Steps = r
		r.readIn, r.touched, r.served = r.afterReadEntry, r.touch, r.done
		r.writeIn, r.copied, r.inserted, r.held, r.committed = r.afterWriteEntry, r.insert, r.afterInsert, r.afterHold, r.commit
		r.evicted, r.dirtied, r.throttled = r.evict, r.marked, r.afterThrottle
		r.waited, r.fillWired, r.released, r.failed = r.afterWait, r.readBackend, r.release, r.fail
		r.read, r.attempt = r.afterRead, r.readAttempt
		r.closeIn, r.pushWired, r.pushed = r.afterCloseEntry, r.push, r.afterPush
		r.looked, r.lookupWired, r.metaLooked = r.lookup, r.lookupMiss, r.afterLookup
	}
	r.h, r.sys, r.p, r.t, r.span = h, sys, ctx.P, ctx.T, ctx.Span
	r.kind, r.off, r.n, r.err, r.fetchLen = kind, off, n, nil, 0
	return r
}

func (m *Mount) putRequest(r *request) {
	r.h, r.sys, r.p, r.t, r.span, r.err = nil, nil, nil, nil, nil, nil
	r.path, r.meta, r.reply, r.insThen = "", nil, nil, nil
	m.requests = append(m.requests, r)
}

// do is a Read, Write or Close of h in its process: the request run,
// then, from where the run handed control back, the part that needs the
// process — a store read of a fill, after which the run goes on, a stale
// handle's error, the DIRECT I/O or the size push of a close — and,
// under Syscalls, the exit mode switch. Under Syscalls sys is the
// wrapper whose entry and exit the run charges; a bare call passes nil.
func (h *pagedHandle) do(ctx vfsapi.Ctx, sys *Syscalls, kind vfsapi.Kind, off, n int64) (int64, error) {
	m := h.m
	r := m.getRequest(ctx, h, sys, kind, off, n)
	r.start()
	ctx.P.Park()
	for r.at == handStore || r.at == handRetry {
		if g := r.fetch.G; r.at == handStore {
			m.store.ReadData(ctx, h.f.Ino, g.Off, g.Len)
		} else {
			// CephStore.ReadData blocks until the read lands, and
			// ignores the error of one cut short by a crash.
			m.store.(*CephStore).retry.Retry(ctx, &r.op, r.err, r.attempt)
		}
		r.storeRead()
		ctx.P.Park()
	}
	at, n, err := r.at, r.n, r.err
	path, size, meta := r.path, r.size, r.meta
	m.putRequest(r)
	switch at {
	case handDone:
		return n, err
	case handStale:
		// Closing a stale handle releases it but cannot push the size:
		// the kernel state that tracked it is gone.
		n, err = 0, h.failIfStale(ctx)
		if kind == vfsapi.OpClose {
			h.closed = true
		}
	case handDirect:
		h.direct(ctx, kind, off, n)
	case handPush:
		err = m.store.SetSize(ctx, h.f.Ino, h.f.Size)
	case handMeta:
		_, err = meta.Finish()
		m.store.(*CephStore).sizeSet(path, size, err)
	}
	if sys != nil {
		ctx.T.ModeSwitch(ctx.P)
	}
	return n, err
}

// Finish goes on with an Open in the process from where its run handed
// control back (see vfsapi.Run): the MDS lookup's end, the create or the
// truncation, then the handle.
func (r *request) Finish(ctx vfsapi.Ctx) (vfsapi.Result, error) {
	m := r.m
	at, h, path, flags, info, ino, meta, err := r.at, r.h, r.path, r.flags, r.info, r.ino, r.meta, r.err
	m.putRequest(r)
	var nh vfsapi.Handle
	switch at {
	case handDone:
		if err != nil {
			return vfsapi.Result{}, err
		}
		return vfsapi.Result{H: h}, nil
	case handMeta:
		rep, err := meta.Finish()
		info, ino, err = m.store.(*CephStore).looked(path, rep.Info, rep.Ino, err)
		nh, err = m.opened(ctx, path, flags, info, ino, err)
		return vfsapi.Result{H: nh}, err
	case handCreate:
		nh, err = m.opened(ctx, path, flags, info, ino, vfsapi.ErrNotExist)
	case handTrunc:
		nh, err = m.newHandle(ctx, path, flags, info, ino)
	}
	return vfsapi.Result{H: nh}, err
}

// syscall is Syscalls' Read, Write or Close c on h: the run inside the
// syscall scope.
func (h *pagedHandle) syscall(ctx vfsapi.Ctx, s *Syscalls, c *vfsapi.Call) (vfsapi.Result, error) {
	sc := ctx.Span.Enter(obs.LayerSyscall)
	n, err := h.do(ctx, s, c.Kind, c.Off, c.N)
	sc.Exit()
	return vfsapi.Result{N: n}, err
}

// start begins the run: under Syscalls with the entry chain, the mode
// switch and the VFS dispatch; a bare call at its first decision; an
// Open with the store's op CPU.
func (r *request) start() {
	then := r.closeIn
	switch r.kind {
	case vfsapi.OpOpen:
		r.t.LockedChainThen(r.p, nil, nil, "", r.looked, r.m.store.(*CephStore).opStep())
		return
	case vfsapi.OpRead:
		then = r.readIn
	case vfsapi.OpWrite:
		then = r.writeIn
	}
	if r.sys == nil {
		then()
		return
	}
	r.t.LockedChainThen(r.p, nil, nil, "", then, r.t.ModeSwitchStep(), cpu.Charge(cpu.Kernel, r.sys.kern.params.VFSOpCost))
}

// exit ends a served run after a charge of d: under Syscalls with the
// exit mode switch.
func (r *request) exit(d time.Duration) {
	out := cpu.Step{}
	if r.sys != nil {
		out = r.t.ModeSwitchStep()
	}
	r.t.LockedChainThen(r.p, nil, nil, "", r.served, cpu.Charge(cpu.Kernel, d), out)
}

// handBack records where the run stopped and resumes the process.
func (r *request) handBack(at hand) {
	r.at = at
	r.p.ResumeHere()
}

// done ends a request the run served.
func (r *request) done() { r.handBack(handDone) }

// afterReadEntry clamps the read at the end of file, grows the readahead
// window and claims the range; a fully cached range goes on under
// lru_lock.
func (r *request) afterReadEntry() {
	h := r.h
	if h.stale() {
		r.handBack(handStale)
		return
	}
	if r.n = min(r.n, h.f.Size-r.off); r.n <= 0 {
		r.n = 0
		r.exit(0)
		return
	}
	if h.flags.Has(vfsapi.DIRECT) {
		r.handBack(handDirect)
		return
	}
	// Readahead: grow the window on sequential access, reset on seek.
	// Brownout zeroes the effective window, deferring speculative
	// fetches while the backend or admission queues are overloaded.
	r.fetchLen = h.ra.Extend(r.off, r.n, h.f.Size, h.m.raWindow())
	r.fetch.Claimed(h.f.Claim(r.off, r.fetchLen))
}

// WaitFetch waits on fetchQ for another thread's read of part of the
// window (cache.FetchSteps).
func (r *request) WaitFetch() {
	r.m.fetchQ.WaitTimeoutThen(r.p, r.m.kern.params.DirtyThrottleCheck, r.waited)
}

func (r *request) afterWait() { r.fetch.Filled(nil) }

// Fill reads g in from the store (cache.FetchSteps): a kernel Ceph
// client charges its op and the message's wire costs, then reads the
// objects; a crashed one reads nothing; another store's read goes back
// to the process.
func (r *request) Fill(g extent.Extent) {
	cs, ok := r.m.store.(*CephStore)
	switch {
	case !ok:
		r.handBack(handStore)
	case cs.crashed:
		r.storeRead()
	default:
		wire := cs.wireSteps(g.Len)
		r.t.LockedChainThen(r.p, nil, nil, "", r.fillWired, cs.opStep(), wire[0], wire[1], wire[2])
	}
}

// readBackend makes the first attempt of the fill's blocking object read
// (see cluster.Retrier.Do); a crashed client and a failed attempt hand
// back, and the Retrier goes on in the process.
func (r *request) readBackend() {
	cs := r.m.store.(*CephStore)
	r.op, _ = cs.retry.Begin(false) // a blocking read is never denied
	if !cs.retry.Ready(&r.op) {
		r.err = nil
		r.handBack(handRetry)
		return
	}
	cs.clus.ReadThen(r.ctx(), r.h.f.Ino, r.fetch.G.Off, r.fetch.G.Len, r.read)
}

// afterRead ends the first attempt of the object read.
func (r *request) afterRead(err error) {
	if err != nil {
		r.err = err
		r.handBack(handRetry)
		return
	}
	r.m.store.(*CephStore).retry.Succeeded(&r.op)
	r.storeRead()
}

// readAttempt is the Retrier's attempt of a fill's read: routed to the
// least-degraded member first, then failing over to ring replicas.
func (r *request) readAttempt(_, member int) error {
	cs, ctx, g := r.m.store.(*CephStore), r.ctx(), r.fetch.G
	if member == 0 {
		return cs.clus.Read(ctx, r.h.f.Ino, g.Off, g.Len)
	}
	return cs.clus.ReadReplica(ctx, r.h.f.Ino, g.Off, g.Len, member)
}

// storeRead goes on with a fill once the store read is over. A handle
// closed or a mount crashed meanwhile fails it, after the crash check's
// charge, rather than insert into the restarted incarnation's cache; a
// good read is inserted. The claim is released either way, so other
// stale waiters cycle out.
func (r *request) storeRead() {
	h := r.h
	switch {
	case h.closed:
		r.err = vfsapi.ErrClosed
		r.release()
	case h.stale():
		r.err = vfsapi.ErrCrashed
		r.t.LockedChainThen(r.p, nil, nil, "", r.released, cpu.Charge(cpu.Kernel, r.m.kern.params.VFSOpCost))
	default:
		r.err = nil
		r.insertThen(r.fetch.G, r.released)
	}
}

// release releases the fill's claim and wakes the threads waiting on it.
func (r *request) release() {
	g := r.fetch.G
	r.h.f.Fetching.Remove(g.Off, g.Len)
	r.m.fetchQ.Broadcast()
	r.fetch.Filled(r.err)
}

// Reclaim fails a read whose handle was closed or went stale, after the
// crash check's charge, or claims the first missing range of its window;
// the claims take no lock, as the page lock is per page
// (cache.FetchSteps).
func (r *request) Reclaim() {
	h := r.h
	switch {
	case h.closed:
		r.Fetched(vfsapi.ErrClosed)
	case h.stale():
		r.err = vfsapi.ErrCrashed
		r.t.LockedChainThen(r.p, nil, nil, "", r.failed, cpu.Charge(cpu.Kernel, r.m.kern.params.VFSOpCost))
	default:
		r.fetch.Claimed(h.f.Claim(r.off, r.fetchLen))
	}
}

// fail ends the read-miss loop with the error of a crash check.
func (r *request) fail() { r.Fetched(r.err) }

// Fetched ends the read-miss loop: with the window resident, the LRU
// touch under lru_lock and the copy; with an error, the read
// (cache.FetchSteps).
func (r *request) Fetched(err error) {
	if err != nil {
		r.n, r.err = 0, err
		r.exit(0)
		return
	}
	r.t.LockedChainThen(r.p, r.m.kern.lruLock, r.span, "lru_lock", r.touched)
}

// touch marks the file recently used (page flags only: cached reads pay
// no per-page lock hold) and copies the data out.
func (r *request) touch() {
	m := r.h.m
	m.cache.Touch(r.h.f)
	m.kern.lruLock.Unlock(r.p)
	r.exit(m.kern.params.CopyTime(r.n))
}

// afterWriteEntry copies the data into the cache under the inode mutex.
func (r *request) afterWriteEntry() {
	h := r.h
	switch {
	case h.stale():
		r.handBack(handStale)
		return
	case !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE):
		r.n, r.err = 0, vfsapi.ErrReadOnly
		r.exit(0)
		return
	case r.n <= 0:
		r.n = 0
		r.exit(0)
		return
	}
	h.wrote = true
	if h.flags.Has(vfsapi.DIRECT) {
		r.handBack(handDirect)
		return
	}
	params := h.m.kern.params
	r.t.LockedChainThen(r.p, h.f.X, nil, "", r.copied,
		cpu.Charge(cpu.Kernel, params.IMutexHold), cpu.Charge(cpu.Kernel, params.CopyTime(r.n)))
}

// insert records the copied range resident, then commits the write.
func (r *request) insert() { r.insertThen(extent.Extent{Off: r.off, Len: r.n}, r.committed) }

// insertThen takes lru_lock to record ext resident, then calls then.
func (r *request) insertThen(ext extent.Extent, then func()) {
	r.ins, r.insThen = ext, then
	r.t.LockedChainThen(r.p, r.m.kern.lruLock, r.span, "lru_lock", r.inserted)
}

// afterInsert records the range resident and charges the lock hold of
// the pages it added; a stale ledger entry from before a crash is not
// accounted.
func (r *request) afterInsert() {
	m := r.m
	if m.cache.Stale(r.h.f) {
		m.kern.lruLock.Unlock(r.p)
		r.insThen()
		return
	}
	r.t.LockedChainThen(r.p, nil, nil, "", r.held, cpu.Charge(cpu.Kernel, m.pageHold(m.cache.Insert(r.h.f, r.ins.Off, r.ins.Len))))
}

// afterHold releases lru_lock and, over the memory limit, takes it again
// to evict cold clean pages.
func (r *request) afterHold() {
	k := r.m.kern
	k.lruLock.Unlock(r.p)
	if r.m.cache.Over() {
		r.t.LockedChainThen(r.p, k.lruLock, r.span, "lru_lock", r.evicted)
		return
	}
	r.insThen()
}

// evict reclaims clean pages and charges the page-structure work for
// them once lru_lock is released.
func (r *request) evict() {
	m := r.m
	hold := m.pageHold(m.cache.Evict())
	m.kern.lruLock.Unlock(r.p)
	r.t.LockedChainThen(r.p, nil, nil, "", r.insThen, cpu.Charge(cpu.Kernel, hold))
}

// commit grows the size, releases the inode mutex and takes wb_lock to
// mark the range dirty.
func (r *request) commit() {
	h := r.h
	k := h.m.kern
	h.f.Size = max(h.f.Size, r.off+r.n)
	h.f.X.Unlock(r.p)
	r.t.LockedChainThen(r.p, k.writebackLock, r.span, "wb_lock", r.dirtied, cpu.Charge(cpu.Kernel, k.params.WritebackLockHold))
}

// marked records the range dirty and throttles the writer; a stale
// ledger entry is not accounted, and the write returns at once.
func (r *request) marked() {
	if r.m.mark(r.p, r.h.f, r.off, r.n) {
		r.throttle()
		return
	}
	r.written()
}

// throttle holds the writer of n bytes on throttleQ, as I/O wait, for
// its balance_dirty_pages pause (see Mount.dirtyPause), then returns
// from the call.
func (r *request) throttle() {
	m := r.m
	if pause := m.dirtyPause(r.n); pause > 0 {
		r.since = m.kern.eng.Now()
		m.throttleQ.WaitTimeoutThen(r.p, pause, r.throttled)
		return
	}
	r.hardLimit()
}

// hardLimit holds the writer while the mount is over its hard dirty
// limit, until the flushers bring it back down.
func (r *request) hardLimit() {
	m := r.m
	if !m.overDirty() {
		r.written()
		return
	}
	r.since = m.kern.eng.Now()
	m.throttleQ.WaitTimeoutThen(r.p, m.kern.params.DirtyThrottleCheck, r.throttled)
}

func (r *request) afterThrottle() {
	r.t.Account().AddIOWait(r.m.kern.eng.Now() - r.since)
	r.hardLimit()
}

// written returns from a write; one whose handle went stale fails: the
// client died while the writer was throttled, so the pages it buffered
// are gone and the write must not report success.
func (r *request) written() {
	if r.h.stale() {
		r.handBack(handStale)
		return
	}
	r.exit(0)
}

// afterCloseEntry closes the handle and pushes a written file's size:
// a kernel Ceph client's push charges the op and the message's wire
// costs first; the other stores' go back to the process.
func (r *request) afterCloseEntry() {
	h := r.h
	if h.stale() {
		r.handBack(handStale)
		return
	}
	h.closed = true
	if !h.wrote || h.f.Unlinked {
		r.exit(0)
		return
	}
	cs, ok := h.m.store.(*CephStore)
	if ok && !cs.crashed {
		r.path, ok = cs.paths[h.f.Ino]
	} else {
		ok = false
	}
	if !ok {
		r.handBack(handPush)
		return
	}
	r.size = h.f.Size
	wire := cs.wireSteps(256)
	r.t.LockedChainThen(r.p, nil, nil, "", r.pushWired, cs.opStep(), wire[0], wire[1], wire[2])
}

// push sends the size to the MDS; a stalled MDS or a hop error hands
// back in the MDS run, which the process finishes.
func (r *request) push() {
	cs := r.m.store.(*CephStore)
	r.at = handMeta
	r.meta = cs.clus.StartMeta(r.ctx(), cluster.MetaQuery{Op: cluster.MetaSetSize, Path: r.path, Size: r.size}, r.pushed)
}

// afterPush updates the cached attribute once the MDS has the size, and
// returns from the call with the MDS's error.
func (r *request) afterPush() {
	_, r.err = r.meta.Finish()
	r.m.store.(*CephStore).sizeSet(r.path, r.size, r.err)
	r.exit(0)
}

// ctx is the context of the run's process.
func (r *request) ctx() vfsapi.Ctx { return vfsapi.Ctx{P: r.p, T: r.t, Span: r.span} }

// lookup opens a file whose attributes are cached; a miss charges the
// wire costs of the MDS lookup.
func (r *request) lookup() {
	cs := r.m.store.(*CephStore)
	if e, ok := cs.attrs[r.path]; ok {
		r.found(e.info, e.ino, nil)
		return
	}
	wire := cs.wireSteps(256)
	r.t.LockedChainThen(r.p, nil, nil, "", r.lookupWired, wire[:]...)
}

// lookupMiss looks the path up at the MDS; a stalled MDS or a hop error
// hands back in the MDS run, which the process finishes.
func (r *request) lookupMiss() {
	r.at = handMeta
	r.meta = r.m.store.(*CephStore).clus.StartMeta(r.ctx(), cluster.MetaQuery{Op: cluster.MetaLookup, Path: r.path}, r.metaLooked)
}

// afterLookup caches the attributes the MDS returned.
func (r *request) afterLookup() {
	rep, err := r.meta.Finish()
	r.found(r.m.store.(*CephStore).looked(r.path, rep.Info, rep.Ino, err))
}

// found makes the handle of the path the lookup found; a file to create
// or truncate goes back to the process.
func (r *request) found(info vfsapi.FileInfo, ino uint64, err error) {
	r.info, r.ino = info, ino
	switch {
	case err == vfsapi.ErrNotExist && r.flags.Has(vfsapi.CREATE):
		r.handBack(handCreate)
		return
	case err != nil:
		r.err = err
	case info.IsDir:
		r.err = vfsapi.ErrIsDir
	case truncates(r.flags):
		r.handBack(handTrunc)
		return
	default:
		r.h = r.m.handle(r.path, r.flags, r.m.file(ino, info.Size))
	}
	r.at = handDone
	if r.reply != nil {
		r.reply()
		return
	}
	r.p.ResumeHere()
}
