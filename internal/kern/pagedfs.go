package kern

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/vfsapi"
)

// Mount implements vfsapi.FileSystem: the kernel filesystem path with
// page caching, inode mutexes and writeback. Callers are expected to
// already be in kernel mode (wrap with Syscalls for the user-entry
// costs).

// OpenForwarder is implemented by stores whose backing filesystem has
// open-time semantics of its own (FSStore over a FUSE union): the mount
// forwards each application open so copy-up and truncation fire below
// the page cache at the right moment.
type OpenForwarder interface {
	ForwardOpen(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) error
}

// failIfCrashed is the entry check on every mount-level operation: a
// crashed kernel client fails everything deterministically until the
// remount completes. Failing still costs a syscall's worth of kernel
// time so erroring loops advance simulated time instead of spinning at
// one virtual instant.
func (m *Mount) failIfCrashed(ctx vfsapi.Ctx) error {
	if m.crashed {
		ctx.T.Exec(ctx.P, cpu.Kernel, m.kern.params.VFSOpCost)
		return vfsapi.ErrCrashed
	}
	return nil
}

// Open opens or creates a file.
func (m *Mount) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	if err := m.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	if fw, ok := m.store.(OpenForwarder); ok && flags.Writable() {
		if err := fw.ForwardOpen(ctx, path, flags); err != nil && !(flags.Has(vfsapi.CREATE) && err == vfsapi.ErrNotExist) {
			return nil, err
		}
	}
	info, ino, err := m.store.Lookup(ctx, path)
	switch {
	case err == nil:
		if info.IsDir {
			return nil, vfsapi.ErrIsDir
		}
	case err == vfsapi.ErrNotExist && flags.Has(vfsapi.CREATE):
		ino, err = m.store.Create(ctx, path)
		if err != nil {
			return nil, err
		}
		info = vfsapi.FileInfo{Name: path}
	default:
		return nil, err
	}
	f := m.file(ino, info.Size)
	if flags.Has(vfsapi.TRUNC) && flags.Writable() {
		m.dropCache(ctx, f)
		f.Size = 0
		if err := m.store.SetSize(ctx, ino, 0); err != nil {
			return nil, err
		}
	}
	return &pagedHandle{m: m, f: f, path: path, flags: flags, gen: m.cache.Gen, ra: cache.Readahead{Next: -1}}, nil
}

// Stat returns metadata, preferring the in-kernel (possibly dirty) size.
func (m *Mount) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	if err := m.failIfCrashed(ctx); err != nil {
		return vfsapi.FileInfo{}, err
	}
	info, ino, err := m.store.Lookup(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, err
	}
	if f, ok := m.cache.Lookup(ino); ok && !info.IsDir && f.Size > info.Size {
		info.Size = f.Size
	}
	return info, nil
}

// Mkdir creates a directory.
func (m *Mount) Mkdir(ctx vfsapi.Ctx, path string) error {
	if err := m.failIfCrashed(ctx); err != nil {
		return err
	}
	return m.store.Mkdir(ctx, path)
}

// Readdir lists a directory.
func (m *Mount) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	if err := m.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	return m.store.Readdir(ctx, path)
}

// Unlink removes a file and drops its cached state.
func (m *Mount) Unlink(ctx vfsapi.Ctx, path string) error {
	if err := m.failIfCrashed(ctx); err != nil {
		return err
	}
	ino, err := m.store.Unlink(ctx, path)
	if err != nil {
		return err
	}
	if f, ok := m.cache.Lookup(ino); ok {
		f.Unlinked = true
		m.dropCache(ctx, f)
		m.cache.Forget(ino)
	}
	return nil
}

// Rmdir removes an empty directory.
func (m *Mount) Rmdir(ctx vfsapi.Ctx, path string) error {
	if err := m.failIfCrashed(ctx); err != nil {
		return err
	}
	return m.store.Rmdir(ctx, path)
}

// Rename moves a file.
func (m *Mount) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	if err := m.failIfCrashed(ctx); err != nil {
		return err
	}
	return m.store.Rename(ctx, oldPath, newPath)
}

// pagedHandle is an open file on a kernel mount.
type pagedHandle struct {
	m      *Mount
	f      *fileState
	path   string
	flags  vfsapi.OpenFlag
	gen    uint64 // mount generation at open; stale after a crash
	closed bool
	wrote  bool

	ra cache.Readahead // Next is -1 until the first read
}

// failIfStale fails handle operations after the handle is closed or the
// mount crashed. The generation check keeps pre-crash handles failing
// even after the remount: the file table was rebuilt cold, so the old
// fileState is an orphan and the application must reopen.
func (h *pagedHandle) failIfStale(ctx vfsapi.Ctx) error {
	if h.closed {
		return vfsapi.ErrClosed
	}
	if h.m.crashed || h.gen != h.m.cache.Gen {
		ctx.T.Exec(ctx.P, cpu.Kernel, h.m.kern.params.VFSOpCost)
		return vfsapi.ErrCrashed
	}
	return nil
}

// Path returns the open path.
func (h *pagedHandle) Path() string { return h.path }

// Size returns the kernel's view of the file size.
func (h *pagedHandle) Size() int64 { return h.f.Size }

// Read serves [off,off+n) from the page cache, fetching misses from the
// store with readahead on sequential streams.
func (h *pagedHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if off >= h.f.Size {
		return 0, nil
	}
	if off+n > h.f.Size {
		n = h.f.Size - off
	}
	if n <= 0 {
		return 0, nil
	}
	m := h.m
	params := m.kern.params

	if h.flags.Has(vfsapi.DIRECT) {
		m.store.ReadData(ctx, h.f.Ino, off, n)
		ctx.T.Exec(ctx.P, cpu.Kernel, params.CopyTime(n))
		return n, nil
	}

	// Readahead: grow the window on sequential access, reset on seek.
	// Brownout zeroes the effective window, deferring speculative
	// fetches while the backend or admission queues are overloaded.
	fetchLen := h.ra.Extend(off, n, h.f.Size, m.raWindow())

	// Fetch misses with page-lock semantics: ranges being read in by
	// another thread are awaited rather than re-fetched.
	for {
		if err := h.failIfStale(ctx); err != nil {
			// The client died while we waited on a fetch (or mid-loop):
			// the page cache was discarded, fail rather than re-fetch
			// from the dead store.
			return 0, err
		}
		g, wait := h.f.Claim(off, fetchLen)
		if wait {
			m.fetchQ.WaitTimeout(ctx.P, params.DirtyThrottleCheck)
			continue
		}
		if g.Len == 0 {
			break
		}
		m.store.ReadData(ctx, h.f.Ino, g.Off, g.Len)
		if err := h.failIfStale(ctx); err != nil {
			// Crashed during the store read: release the claim so other
			// stale waiters cycle out, and fail instead of inserting
			// into the restarted incarnation's cache.
			h.f.Fetching.Remove(g.Off, g.Len)
			m.fetchQ.Broadcast()
			return 0, err
		}
		m.cacheInsert(ctx, h.f, g.Off, g.Len)
		h.f.Fetching.Remove(g.Off, g.Len)
		m.fetchQ.Broadcast()
	}
	// LRU touch for the access (page flags only — cached reads do not
	// pay per-page lock holds) plus the user-visible copy out.
	m.withLRU(ctx, func() { m.cache.Touch(h.f) })
	ctx.T.Exec(ctx.P, cpu.Kernel, params.CopyTime(n))
	return n, nil
}

// Write copies [off,off+n) into the page cache and marks it dirty,
// throttling when the mount exceeds its dirty limit.
func (h *pagedHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE) {
		return 0, vfsapi.ErrReadOnly
	}
	if n <= 0 {
		return 0, nil
	}
	m := h.m
	params := m.kern.params
	h.wrote = true

	if h.flags.Has(vfsapi.DIRECT) {
		ctx.T.Exec(ctx.P, cpu.Kernel, params.CopyTime(n))
		m.store.WriteData(ctx, h.f.Ino, off, n)
		if end := off + n; end > h.f.Size {
			h.f.Size = end
			m.store.SetSize(ctx, h.f.Ino, end)
		}
		return n, nil
	}

	h.f.X.Lock(ctx.P)
	ctx.T.Chain(ctx.P, cpu.Charge(cpu.Kernel, params.IMutexHold), cpu.Charge(cpu.Kernel, params.CopyTime(n)))
	m.cacheInsert(ctx, h.f, off, n)
	if end := off + n; end > h.f.Size {
		h.f.Size = end
	}
	h.f.X.Unlock(ctx.P)
	m.markDirty(ctx, h.f, off, n)
	if err := h.failIfStale(ctx); err != nil {
		// The client died while the writer was throttled: the pages it
		// buffered are gone, so the write must not report success.
		return 0, err
	}
	return n, nil
}

// Append writes at end of file under the inode mutex.
func (h *pagedHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	off := h.f.Size
	_, err := h.Write(ctx, off, n)
	return off, err
}

// Fsync synchronously drains this file's dirty pages to the store.
func (h *pagedHandle) Fsync(ctx vfsapi.Ctx) error {
	if err := h.failIfStale(ctx); err != nil {
		return err
	}
	m := h.m
	for h.f.Dirty.Len() > 0 {
		m.kern.writebackLock.Lock(ctx.P)
		ctx.T.Exec(ctx.P, cpu.Kernel, m.kern.params.WritebackLockHold)
		exts := h.f.Dirty.PopFirst(4 << 20)
		m.kern.writebackLock.Unlock(ctx.P)
		var total int64
		for _, e := range exts {
			m.store.WriteData(ctx, h.f.Ino, e.Off, e.Len)
			total += e.Len
		}
		if err := h.failIfStale(ctx); err != nil {
			// Crash mid-fsync: the dirty accounting was already zeroed,
			// and the un-acknowledged batch must not count as synced.
			return err
		}
		m.cache.DirtyBytes -= total
		m.throttleQ.Broadcast()
	}
	m.cache.Unlist(h.f)
	if err := m.store.SetSize(ctx, h.f.Ino, h.f.Size); err != nil {
		return err
	}
	// Draining pages into the store is only durable when the store
	// itself persists them (disk, kernel Ceph client). A store stacked
	// on another filesystem (FSStore over ceph-fuse: the FP and FP/FP
	// double-caching stacks) merely moved the pages into the inner
	// cache — the fsync must propagate down or acknowledged data is
	// still volatile in the user-level client.
	if fs, ok := m.store.(storeFsyncer); ok {
		return fs.Fsync(ctx, h.f.Ino)
	}
	return nil
}

// storeFsyncer is implemented by stores whose WriteData is not itself
// durable and which must forward fsync to a lower layer.
type storeFsyncer interface {
	Fsync(ctx vfsapi.Ctx, ino uint64) error
}

// Close releases the handle, propagating the size for written files.
func (h *pagedHandle) Close(ctx vfsapi.Ctx) error {
	if h.closed {
		return vfsapi.ErrClosed
	}
	if err := h.failIfStale(ctx); err != nil {
		// Closing a stale handle releases it but cannot push the size —
		// the kernel state that tracked it is gone.
		h.closed = true
		return err
	}
	h.closed = true
	if h.wrote && !h.f.Unlinked {
		return h.m.store.SetSize(ctx, h.f.Ino, h.f.Size)
	}
	return nil
}
