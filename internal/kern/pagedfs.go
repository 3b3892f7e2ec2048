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

// Open opens or creates a file. On a kernel Ceph client it runs as a
// request run (see Start), which hands control back where the file must
// be created or truncated, and where the MDS lookup of a path missing
// from the attribute cache does in its own run.
func (m *Mount) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	if r := m.Start(ctx, vfsapi.Call{Kind: vfsapi.OpOpen, Path: path, Flags: flags}, nil); r != nil {
		ctx.P.Park()
		res, err := r.Finish(ctx)
		return res.H, err
	}
	if err := m.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	if fw, ok := m.store.(OpenForwarder); ok && flags.Writable() {
		if err := fw.ForwardOpen(ctx, path, flags); err != nil && !(flags.Has(vfsapi.CREATE) && err == vfsapi.ErrNotExist) {
			return nil, err
		}
	}
	info, ino, err := m.store.Lookup(ctx, path)
	return m.opened(ctx, path, flags, info, ino, err)
}

// Start begins an Open as a request run (see vfsapi.Starter, and
// request). Only a mount of a live kernel Ceph client starts one: a
// crashed mount's error path charges CPU, and the other stores' opens
// stay blocking.
func (m *Mount) Start(ctx vfsapi.Ctx, c vfsapi.Call, reply func()) vfsapi.Run {
	if cs, ok := m.store.(*CephStore); !ok || cs.crashed || m.crashed || c.Kind != vfsapi.OpOpen {
		return nil
	}
	r := m.getRequest(ctx, nil, nil, vfsapi.OpOpen, 0, 0)
	r.Path, r.Flags, r.Reply = c.Path, c.Flags, reply
	r.start()
	return r
}

// opened goes on with an Open from the store's lookup of path: it
// creates a missing file and makes the handle.
func (m *Mount) opened(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag, info vfsapi.FileInfo, ino uint64, err error) (vfsapi.Handle, error) {
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
	return m.newHandle(ctx, path, flags, info, ino)
}

// newHandle makes the handle of an open file, truncating it first when
// flags ask to.
func (m *Mount) newHandle(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag, info vfsapi.FileInfo, ino uint64) (vfsapi.Handle, error) {
	f := m.file(ino, info.Size)
	if flags.Truncates() {
		m.dropCache(ctx, f)
		f.Size = 0
		if err := m.store.SetSize(ctx, ino, 0); err != nil {
			return nil, err
		}
	}
	return m.handle(path, flags, f), nil
}

// handle returns a new handle on f.
func (m *Mount) handle(path string, flags vfsapi.OpenFlag, f *fileState) *pagedHandle {
	return &pagedHandle{m: m, f: f, path: path, flags: flags, gen: m.cache.Gen, ra: cache.Readahead{Next: -1}}
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
	m.unlinked(ctx, ino)
	return nil
}

// unlinked drops the cached state of the file of ino, which the store no
// longer has under any name: its pages, dirty ones too, go nowhere, and
// open handles neither flush nor push its size.
func (m *Mount) unlinked(ctx vfsapi.Ctx, ino uint64) {
	if f, ok := m.cache.Lookup(ino); ok {
		f.Unlinked = true
		m.dropCache(ctx, f)
		m.cache.Forget(ino)
	}
}

// Rmdir removes an empty directory.
func (m *Mount) Rmdir(ctx vfsapi.Ctx, path string) error {
	if err := m.failIfCrashed(ctx); err != nil {
		return err
	}
	return m.store.Rmdir(ctx, path)
}

// Rename moves a file. A file the new path replaced is unlinked, as
// Unlink drops it.
func (m *Mount) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	if err := m.failIfCrashed(ctx); err != nil {
		return err
	}
	ino, err := m.store.Rename(ctx, oldPath, newPath)
	if err != nil {
		return err
	}
	m.unlinked(ctx, ino)
	return nil
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

// stale reports whether failIfStale fails.
func (h *pagedHandle) stale() bool {
	return h.closed || h.m.crashed || h.gen != h.m.cache.Gen
}

// Path returns the open path.
func (h *pagedHandle) Path() string { return h.path }

// Size returns the kernel's view of the file size.
func (h *pagedHandle) Size() int64 { return h.f.Size }

// Read serves [off,off+n) from the page cache, fetching misses from the
// store with readahead on sequential streams, with page-lock semantics:
// ranges being read in by another thread are awaited rather than
// re-fetched. It runs as one request run, misses included, which hands
// control back at a closed or stale handle, DIRECT, a fill from a store
// other than a kernel Ceph client's and an object read that fails or
// finds the client crashed (see do).
func (h *pagedHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	return h.do(ctx, nil, vfsapi.OpRead, off, n)
}

// direct serves a DIRECT read or write of [off,off+n) from or to the
// store, past the page cache.
func (h *pagedHandle) direct(ctx vfsapi.Ctx, kind vfsapi.Kind, off, n int64) {
	m := h.m
	copyTime := m.kern.params.CopyTime(n)
	if kind == vfsapi.OpRead {
		m.store.ReadData(ctx, h.f.Ino, off, n)
		ctx.T.Exec(ctx.P, cpu.Kernel, copyTime)
		return
	}
	ctx.T.Exec(ctx.P, cpu.Kernel, copyTime)
	m.store.WriteData(ctx, h.f.Ino, off, n)
	if end := off + n; end > h.f.Size {
		h.f.Size = end
		m.store.SetSize(ctx, h.f.Ino, end)
	}
}

// Write copies [off,off+n) into the page cache and marks it dirty,
// throttling when the mount exceeds its dirty limit. The run, the
// throttle included, hands control back at a closed or stale handle and
// DIRECT.
func (h *pagedHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	return h.do(ctx, nil, vfsapi.OpWrite, off, n)
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
	if m.wb.Drain(ctx, h.f) != nil {
		// Crash mid-fsync: the un-acknowledged batch must not count as
		// synced.
		return h.failIfStale(ctx)
	}
	// An unlinked file's inode is gone from the store: its size, like
	// its pages, goes nowhere, and no layer below holds its data.
	if h.f.Unlinked {
		return nil
	}
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
// The run hands control back at a stale handle and to push the size.
func (h *pagedHandle) Close(ctx vfsapi.Ctx) error {
	_, err := h.do(ctx, nil, vfsapi.OpClose, 0, 0)
	return err
}
