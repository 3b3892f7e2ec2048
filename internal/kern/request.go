package kern

import (
	"time"

	"repro/internal/cacherun"
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/extent"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// The kernel run's own hand-back points (see do and Finish).
const (
	handStale  = cacherun.HandOwn + iota // a closed or stale handle: its error
	handDirect                           // a DIRECT read or write: the store I/O
	handStore                            // a fill from a store other than a kernel Ceph client's: its read
	handPush                             // a close pushes the size of a written file
	handCreate                           // an open creates the file
	handTrunc                            // an open truncates the file
)

// request carries one Open of a kernel Ceph client's mount, or one Read,
// Write or Close of a page-cache handle, while its process stays parked,
// as a cacherun.Run over the mount's step table (see Kernel.Mount):
//
//	Open:  op CPU → attribute lookup (→ wire → the MDS lookup →
//	       attribute insert, on a miss) → handle
//	Read:  [entry] → the read-miss loop → lru_lock + Touch → copy [+ exit]
//	Write: [entry] → i_mutex + hold + copy → insert → size, unlock
//	       i_mutex → wb_lock + hold + MarkDirty → flusher wake → the
//	       dirty pause and the throttle [→ exit]
//	Close: [entry] → closed (→ the size push of a written file of a
//	       kernel Ceph client) [→ exit]
//
// Under Syscalls a Read, Write or Close begins with the system call's
// entry chain (the mode switch and the VFS dispatch) and ends with its
// exit mode switch; a bare call — a union's copy-up, an Append, a test —
// is the same run without them. An Open is a vfsapi.Run that Syscalls
// starts where its entry chain ends, with the exit chain as the reply
// (see sysRun). A decision made before any chain, as a bare run's first
// one is, hands back before the process parks, and the park returns at
// once.
type request struct {
	cacherun.Run[*sim.Mutex]
	m    *Mount
	h    *pagedHandle // the handle of a Read, Write or Close; an Open's new handle
	sys  *Syscalls    // the system call the run serves; nil for a bare call
	size int64        // a Close's pushed size

	// Reusable continuations, bound once per pooled request.
	readIn, touched, served, writeIn, copied func()
	committed, dirtied, closeIn              func()
	looked, lookupWired, metaLooked          func()
}

func (m *Mount) getRequest(ctx vfsapi.Ctx, h *pagedHandle, sys *Syscalls, kind vfsapi.Kind, off, n int64) *request {
	var r *request
	if k := len(m.requests); k > 0 {
		r = m.requests[k-1]
		m.requests = m.requests[:k-1]
	} else {
		r = m.newRequest()
	}
	r.Reset(ctx, kind, off, n)
	r.h, r.sys = h, sys
	return r
}

// newRequest makes a request for the pool, in a frame of its own:
// getRequest runs on every operation's process stack.
func (m *Mount) newRequest() *request {
	r := &request{m: m}
	r.Init(&m.steps, r)
	r.readIn, r.touched, r.served, r.writeIn, r.copied = r.afterReadEntry, r.touch, r.Done, r.afterWriteEntry, r.insert
	r.committed, r.dirtied, r.closeIn = r.commit, r.marked, r.afterCloseEntry
	r.looked, r.lookupWired, r.metaLooked = r.lookup, r.lookupMiss, r.afterLookup
	return r
}

func (m *Mount) putRequest(r *request) {
	r.Clear()
	r.h, r.sys = nil, nil
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
	for r.At == handStore || r.At == cacherun.HandRetry {
		if g := r.G; r.At == handStore {
			m.store.ReadData(ctx, h.f.Ino, g.Off, g.Len)
		} else {
			// CephStore.ReadData blocks until the read lands, and
			// ignores the error of one cut short by a crash.
			r.Retry(ctx)
		}
		r.Filled(nil)
		ctx.P.Park()
	}
	at, n, err := r.At, r.N, r.Err
	if at == cacherun.HandMeta {
		err = r.PushEnd()
	}
	m.putRequest(r)
	switch at {
	case cacherun.HandDone:
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
	at, h, path, flags, info, ino, meta, err := r.At, r.h, r.Path, r.Flags, r.Info, r.Ino, r.Meta, r.Err
	m.putRequest(r)
	var nh vfsapi.Handle
	switch at {
	case cacherun.HandDone:
		if err != nil {
			return vfsapi.Result{}, err
		}
		return vfsapi.Result{H: h}, nil
	case cacherun.HandMeta:
		rep, err := meta.Finish()
		info, ino, err = m.store.(*CephStore).Looked(path, rep, err)
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
	switch r.Kind {
	case vfsapi.OpOpen:
		r.T.LockedChainThen(r.P, nil, nil, "", r.looked, r.m.store.(*CephStore).Op)
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
	r.T.LockedChainThen(r.P, nil, nil, "", then, r.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, r.sys.kern.params.VFSOpCost))
}

// exit ends a served run after a charge of d: under Syscalls with the
// exit mode switch.
func (r *request) exit(d time.Duration) {
	out := cpu.Step{}
	if r.sys != nil {
		out = r.T.ModeSwitchStep()
	}
	r.T.LockedChainThen(r.P, nil, nil, "", r.served, cpu.Charge(cpu.Kernel, d), out)
}

// The request's cacherun.Client steps: End, File, Check, Fill, Fetched,
// Throttled and PushSize.

func (r *request) End()             { r.exit(0) }
func (r *request) File() *fileState { return r.h.f }
func (r *request) PushSize() int64  { return r.size } // the size as the close began

// Check fails a read whose handle was closed, or went stale with a
// crash.
func (r *request) Check() error {
	switch h := r.h; {
	case h.closed:
		return vfsapi.ErrClosed
	case h.stale():
		return vfsapi.ErrCrashed
	}
	return nil
}

// afterReadEntry clamps the read at the end of file, grows the readahead
// window and claims the range; the claims take no lock, as the page lock
// is per page.
func (r *request) afterReadEntry() {
	h := r.h
	if h.stale() {
		r.HandBack(handStale)
		return
	}
	if r.N = min(r.N, h.f.Size-r.Off); r.N <= 0 {
		r.N = 0
		r.exit(0)
		return
	}
	if h.flags.Has(vfsapi.DIRECT) {
		r.HandBack(handDirect)
		return
	}
	// Readahead: grow the window on sequential access, reset on seek.
	// Brownout zeroes the effective window, deferring speculative
	// fetches while the backend or admission queues are overloaded.
	r.FetchLen = h.ra.Extend(r.Off, r.N, h.f.Size, h.m.raWindow())
	r.Claim()
}

// Fill reads the claim in: a kernel Ceph client's objects in the run; a
// crashed one's nothing; another store's in the process.
func (r *request) Fill() {
	switch cs, ok := r.m.store.(*CephStore); {
	case !ok:
		r.HandBack(handStore)
	case cs.crashed:
		r.Filled(nil)
	default:
		r.Fetch()
	}
}

// Fetched takes lru_lock for the LRU touch.
func (r *request) Fetched() {
	r.T.LockedChainThen(r.P, r.m.kern.lruLock, r.Span, "lru_lock", r.touched)
}

// touch marks the file recently used (page flags only: cached reads pay
// no per-page lock hold) and copies the data out.
func (r *request) touch() {
	m := r.h.m
	m.cache.Touch(r.h.f)
	m.kern.lruLock.Unlock(r.P)
	r.exit(m.kern.params.CopyTime(r.N))
}

// afterWriteEntry copies the data into the cache under the inode mutex.
func (r *request) afterWriteEntry() {
	h := r.h
	switch {
	case h.stale():
		r.HandBack(handStale)
		return
	case !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE):
		r.N, r.Err = 0, vfsapi.ErrReadOnly
		r.exit(0)
		return
	case r.N <= 0:
		r.N = 0
		r.exit(0)
		return
	}
	h.wrote = true
	if h.flags.Has(vfsapi.DIRECT) {
		r.HandBack(handDirect)
		return
	}
	params := h.m.kern.params
	r.T.LockedChainThen(r.P, h.f.X, nil, "", r.copied,
		cpu.Charge(cpu.Kernel, params.IMutexHold), cpu.Charge(cpu.Kernel, params.CopyTime(r.N)))
}

// insert records the copied range resident, then commits the write.
func (r *request) insert() { r.InsertThen(extent.Extent{Off: r.Off, Len: r.N}, r.committed) }

// commit grows the size, releases the inode mutex and takes wb_lock to
// mark the range dirty.
func (r *request) commit() {
	h := r.h
	k := h.m.kern
	h.f.Size = max(h.f.Size, r.Off+r.N)
	h.f.X.Unlock(r.P)
	r.T.LockedChainThen(r.P, k.writebackLock, r.Span, "wb_lock", r.dirtied, cpu.Charge(cpu.Kernel, k.params.WritebackLockHold))
}

// marked records the range dirty and throttles the writer, first for
// its balance_dirty_pages pause (see Mount.dirtyPause); a stale ledger
// entry is not accounted, and the write returns at once.
func (r *request) marked() {
	if r.m.mark(r.P, r.h.f, r.Off, r.N) {
		r.Throttle(r.m.dirtyPause(r.N))
		return
	}
	r.Throttled()
}

// Throttled returns from a write; one whose handle went stale fails: the
// client died while the writer was throttled, so the pages it buffered
// are gone and the write must not report success.
func (r *request) Throttled() {
	if r.h.stale() {
		r.HandBack(handStale)
		return
	}
	r.exit(0)
}

// afterCloseEntry closes the handle and pushes a written file's size
// from a kernel Ceph client; the other stores' pushes go back to the
// process.
func (r *request) afterCloseEntry() {
	h := r.h
	if h.stale() {
		r.HandBack(handStale)
		return
	}
	h.closed = true
	if !h.wrote || h.f.Unlinked {
		r.exit(0)
		return
	}
	if cs, ok := h.m.store.(*CephStore); ok && !cs.crashed {
		if path, ok := cs.Path(h.f.Ino); ok {
			r.size = h.f.Size
			r.Push(path)
			return
		}
	}
	r.HandBack(handPush)
}

// lookup opens a file whose attributes are cached; a miss charges the
// wire costs of the MDS lookup.
func (r *request) lookup() {
	cs := r.m.store.(*CephStore)
	if info, ino, ok := cs.Cached(r.Path); ok {
		r.found(info, ino, nil)
		return
	}
	var w [3]cpu.Step
	r.T.LockedChainThen(r.P, nil, nil, "", r.lookupWired, w[:cs.wire(r.T, 256, w[:])]...)
}

// lookupMiss looks the path up at the MDS; a stalled MDS or a hop error
// hands back in the MDS run, which the process finishes.
func (r *request) lookupMiss() {
	r.At = cacherun.HandMeta
	r.Meta = r.m.store.(*CephStore).Clus.StartMeta(r.Ctx(), cluster.MetaQuery{Op: cluster.MetaLookup, Path: r.Path}, r.metaLooked)
}

// afterLookup caches the attributes the MDS returned.
func (r *request) afterLookup() {
	rep, err := r.Meta.Finish()
	r.found(r.m.store.(*CephStore).Looked(r.Path, rep, err))
}

// found makes the handle of the path the lookup found; a file to create
// or truncate goes back to the process.
func (r *request) found(info vfsapi.FileInfo, ino uint64, err error) {
	r.Info, r.Ino = info, ino
	switch {
	case err == vfsapi.ErrNotExist && r.Flags.Has(vfsapi.CREATE):
		r.HandBack(handCreate)
		return
	case err != nil:
		r.Err = err
	case info.IsDir:
		r.Err = vfsapi.ErrIsDir
	case r.Flags.Truncates():
		r.HandBack(handTrunc)
		return
	default:
		r.h = r.m.handle(r.Path, r.Flags, r.m.file(ino, info.Size))
	}
	r.Done()
}
