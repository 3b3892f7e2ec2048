package cephclient

import (
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/vfsapi"
)

// ErrCrashed is returned by every operation after the filesystem
// service has failed, and by operations on handles that predate a
// crash after the service restarted. It aliases vfsapi.ErrCrashed so
// every client stack (Danaus, FUSE, kernel) fails with the same
// deterministic error.
var ErrCrashed = vfsapi.ErrCrashed

// The vfsapi.FileSystem implementation of the user-level client.

// Open opens or creates a file. It runs as a request run (see Start),
// which serves an open whose attributes are cached and hands control
// back at a miss, a caps conflict and a truncation; the blocking code
// then goes on in Finish.
func (c *Client) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	r := c.Start(ctx, vfsapi.Call{Kind: vfsapi.OpOpen, Path: path, Flags: flags}, nil)
	if r == nil {
		defer ctx.Span.Enter(obs.LayerClient).Exit()
		return nil, c.failIfCrashed(ctx)
	}
	ctx.P.Park()
	res, err := r.Finish(ctx)
	return res.H, err
}

// Start begins an Open as a request run (see vfsapi.Starter). A crashed
// client, whose error path charges CPU, starts no run.
func (c *Client) Start(ctx vfsapi.Ctx, op vfsapi.Call, reply func()) vfsapi.Run {
	if op.Kind != vfsapi.OpOpen || c.crashed {
		return nil
	}
	r := c.getRequest(ctx, nil, reply, op.Kind, 0, 0)
	r.Path, r.Flags = op.Path, op.Flags
	r.start()
	return r
}

// opened goes on with an Open from the lookup of path: it creates a
// missing file, takes caps and makes the handle.
func (c *Client) opened(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag, info vfsapi.FileInfo, ino uint64, err error) (vfsapi.Handle, error) {
	switch {
	case err == nil:
		if info.IsDir {
			return nil, vfsapi.ErrIsDir
		}
	case err == vfsapi.ErrNotExist && flags.Has(vfsapi.CREATE):
		ino, err = c.names.Make(ctx, path)
		if err != nil {
			return nil, err
		}
		info = vfsapi.FileInfo{Name: path}
	default:
		return nil, err
	}
	return c.capped(ctx, path, flags, info, ino)
}

// capped acquires capabilities matching the open intent and makes the
// handle; a conflicting holder elsewhere is flushed and invalidated
// first (§3.4). When a revocation happened, the size we looked up may
// predate the other client's flush — refetch it.
func (c *Client) capped(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag, info vfsapi.FileInfo, ino uint64) (vfsapi.Handle, error) {
	if c.clus.AcquireCaps(ctx, ino, capKind(flags), c) {
		var err error
		info, ino, err = c.names.Refresh(ctx, path)
		if err != nil {
			return nil, err
		}
	}
	return c.newHandle(ctx, path, flags, info, ino)
}

// newHandle makes the handle of an open file, truncating it first when
// flags ask to.
func (c *Client) newHandle(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag, info vfsapi.FileInfo, ino uint64) (vfsapi.Handle, error) {
	f, _ := c.cache.File(ino, info.Size)
	if flags.Truncates() {
		c.lockedMeta(ctx, func() { c.dropCache(f) })
		f.Size = 0
		if err := c.names.Truncate(ctx, path, ino); err != nil {
			return nil, err
		}
	}
	return c.handle(path, flags, f), nil
}

// handle returns a new handle on f.
func (c *Client) handle(path string, flags vfsapi.OpenFlag, f *cfile) *chandle {
	return &chandle{c: c, f: f, path: path, flags: flags, gen: c.cache.Gen}
}

// capKind is the capability an open with flags needs.
func capKind(flags vfsapi.OpenFlag) cluster.CapKind {
	if flags.Writable() {
		return cluster.CapWrite
	}
	return cluster.CapRead
}

// Stat returns metadata, preferring the client's newer size view.
func (c *Client) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	info, ino, err := c.names.Lookup(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, err
	}
	if f, ok := c.cache.Lookup(ino); ok && !info.IsDir && f.Size > info.Size {
		info.Size = f.Size
	}
	return info, nil
}

// Mkdir creates a directory at the MDS.
func (c *Client) Mkdir(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	return c.names.Mkdir(ctx, path)
}

// Readdir lists a directory at the MDS.
func (c *Client) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	return c.names.Readdir(ctx, path)
}

// Unlink removes a file, dropping local cache state (see unlinked).
func (c *Client) Unlink(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	_, err := c.names.Unlink(ctx, path)
	return err
}

// unlinked drops the state of the file of ino, which the MDS no longer
// has under the name it was cached at: its pages, dirty ones too, go
// nowhere, and open handles neither flush nor push its size. Caller
// holds client_lock.
func (c *Client) unlinked(ino uint64) {
	if f, ok := c.cache.Lookup(ino); ok {
		f.Unlinked = true
		c.dropCache(f)
		c.cache.Forget(ino)
	}
}

// Rmdir removes an empty directory at the MDS.
func (c *Client) Rmdir(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	return c.names.Rmdir(ctx, path)
}

// Rename moves a file at the MDS and rewrites cached entries. A file
// newPath replaced is unlinked, as Unlink drops it.
func (c *Client) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	_, err := c.names.Rename(ctx, oldPath, newPath)
	return err
}

// chandle is an open file on the user-level client.
type chandle struct {
	c      *Client
	f      *cfile
	path   string
	flags  vfsapi.OpenFlag
	closed bool
	wrote  bool

	// gen is the client crash generation the handle was opened under; a
	// handle from an older generation is stale after a crash.
	gen uint64

	// ra detects sequential reads for the client's readahead. Its Next
	// starts at 0, so a first read at offset 0 already counts as
	// sequential.
	ra cache.Readahead
}

// Path returns the open path.
func (h *chandle) Path() string { return h.path }

// Size returns the client's size view.
func (h *chandle) Size() int64 { return h.f.Size }

// failIfStale rejects operations while the service is down and on
// handles that predate a crash: the restarted service has no state for
// them (its cfile map is cold), so they keep failing with ErrCrashed
// until the application reopens — the replayable-remount contract.
func (h *chandle) failIfStale(ctx vfsapi.Ctx) error {
	if h.stale() {
		// Failing is not free: charge one operation's CPU so loops
		// erroring on a stale handle advance simulated time.
		h.c.opCPU(ctx)
		return ErrCrashed
	}
	return nil
}

// usable fails a Read or Write on a stale or closed handle.
func (h *chandle) usable(ctx vfsapi.Ctx) error {
	if err := h.failIfStale(ctx); err != nil {
		return err
	}
	if h.closed {
		return vfsapi.ErrClosed
	}
	return nil
}

// stale reports whether the service is down or the handle predates a
// crash.
func (h *chandle) stale() bool { return h.c.crashed || h.gen != h.c.cache.Gen }

// mustRecap reports whether a write must recap first: the handle's
// cfile was revoked and the handle is live.
func (h *chandle) mustRecap() bool { return h.f.X.revoked && !h.stale() }

// recap re-acquires write caps while the handle's cfile was revoked
// by another client's conflicting open (RevokeCaps flushed and dropped
// it). A client must hold caps for every buffered write, so it asks the
// MDS again, which revokes the other holder in turn, and continues on a
// current cfile for the same inode; otherwise the write would dirty a
// cfile the client no longer tracks. The refetched attribute only
// refreshes the size: the path may have been unlinked or renamed since,
// and an open file stays writable either way.
func (h *chandle) recap(ctx vfsapi.Ctx) {
	c := h.c
	for h.mustRecap() {
		ino, size := h.f.Ino, h.f.Size
		c.clus.AcquireCaps(ctx, ino, cluster.CapWrite, c)
		if info, got, err := c.names.Refresh(ctx, h.path); err == nil && got == ino {
			size = info.Size
		} else {
			c.names.Unmap(ino, h.path)
		}
		h.f, _ = c.cache.File(ino, size)
	}
}

// Read serves from the object cache, fetching misses from the OSDs. It
// runs as one request run (see Start), misses and waits for other
// readers' fetches included; only a backend read that fails or finds
// the client crashed hands control back, and the Retrier goes on in
// Finish. A range another reader is fetching is awaited, not re-fetched
// (the page in-flight locking of a real client).
func (h *chandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	return h.do(ctx, vfsapi.OpRead, off, n)
}

// Write copies into the object cache and marks dirty, throttling at the
// client's dirty limit. It runs as one request run (see Start), the
// throttle included. The run hands control back only where the write
// must recap (before its copy, after it, or at a revoked mark) or finds
// its handle stale at the insert: Finish fails a stale write, or recaps
// and re-enters the run at that step.
func (h *chandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	return h.do(ctx, vfsapi.OpWrite, off, n)
}

// do is a Read, Write or Close in its process: the request run, then
// Finish.
func (h *chandle) do(ctx vfsapi.Ctx, kind vfsapi.Kind, off, n int64) (int64, error) {
	r := h.begin(ctx, kind, off, n, nil)
	if r == nil {
		return 0, h.refuse(ctx, kind)
	}
	ctx.P.Park()
	return r.finish(ctx)
}

// Start begins a Read, Write or Close as a request run (see
// vfsapi.Starter). A transport's dispatch calls it with the reply a
// served request starts in place of resuming the process. A stale or
// closed handle, a write on a read-only handle and an empty write start
// no run.
func (h *chandle) Start(ctx vfsapi.Ctx, op vfsapi.Call, reply func()) vfsapi.Run {
	if r := h.begin(ctx, op.Kind, op.Off, op.N, reply); r != nil {
		return r
	}
	return nil
}

// begin starts the request run of Start, or returns nil.
func (h *chandle) begin(ctx vfsapi.Ctx, kind vfsapi.Kind, off, n int64, reply func()) *request {
	if h.stale() || h.closed || kind == vfsapi.OpWrite && (!h.writable() || n <= 0) {
		return nil
	}
	switch kind {
	case vfsapi.OpClose:
		h.closed = true
	case vfsapi.OpRead, vfsapi.OpWrite:
	default:
		return nil
	}
	r := h.c.getRequest(ctx, h, reply, kind, off, n)
	r.start()
	return r
}

// refuse is a Read, Write or Close that Start declined: the error of a
// stale or closed handle, whose crash check charges CPU, or of a write
// on a read-only handle; nil for an empty write. Closing a stale handle
// closes it: the handle is dead either way, but no size from a
// pre-crash incarnation reaches the fresh cache.
func (h *chandle) refuse(ctx vfsapi.Ctx, kind vfsapi.Kind) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if kind == vfsapi.OpClose {
		if h.closed {
			return vfsapi.ErrClosed
		}
		h.closed = true
		return h.failIfStale(ctx)
	}
	if err := h.usable(ctx); err != nil {
		return err
	}
	if kind == vfsapi.OpWrite && !h.writable() {
		return vfsapi.ErrReadOnly
	}
	return nil
}

// writable reports whether the handle was opened for writing.
func (h *chandle) writable() bool { return h.flags.Writable() || h.flags.Has(vfsapi.CREATE) }

// Append writes at the end of file.
func (h *chandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	h.recap(ctx) // the end of file is the current holder's view
	off := h.f.Size
	_, err := h.Write(ctx, off, n)
	return off, err
}

// Fsync drains this file's dirty data synchronously.
func (h *chandle) Fsync(ctx vfsapi.Ctx) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return err
	}
	if h.closed {
		return vfsapi.ErrClosed
	}
	if err := h.c.wb.Sync(ctx, h.f); err != ErrCrashed {
		return err
	}
	// Crashed mid-persist: the un-acknowledged batch must not count as
	// synced.
	return h.failIfStale(ctx)
}

// Close releases the handle, pushing the size of a written file. It
// runs as a request run (see Start), which hands control back only where
// the size push does in the MDS run.
func (h *chandle) Close(ctx vfsapi.Ctx) error {
	_, err := h.do(ctx, vfsapi.OpClose, 0, 0)
	return err
}
