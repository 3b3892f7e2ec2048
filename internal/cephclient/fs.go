package cephclient

import (
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/extent"
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

// lookupAttr resolves a path via the attribute cache, falling back to
// an MDS round trip.
func (c *Client) lookupAttr(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	var hit bool
	var e attrEntry
	c.lockedMeta(ctx, func() { e, hit = c.attrs[path] })
	if hit {
		return e.info, e.ino, nil
	}
	c.wire(ctx, 256)
	info, ino, err := c.clus.MetaLookup(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	c.lockedMeta(ctx, func() {
		c.attrs[path] = attrEntry{info: info, ino: ino}
		c.paths[ino] = path
	})
	return info, ino, nil
}

// Open opens or creates a file.
func (c *Client) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	c.opCPU(ctx)
	info, ino, err := c.lookupAttr(ctx, path)
	switch {
	case err == nil:
		if info.IsDir {
			return nil, vfsapi.ErrIsDir
		}
	case err == vfsapi.ErrNotExist && flags.Has(vfsapi.CREATE):
		c.wire(ctx, 256)
		ino, err = c.clus.MetaCreate(ctx, path)
		if err != nil {
			return nil, err
		}
		info = vfsapi.FileInfo{Name: path}
		c.lockedMeta(ctx, func() {
			c.attrs[path] = attrEntry{info: info, ino: ino}
			c.paths[ino] = path
		})
	default:
		return nil, err
	}
	// Acquire capabilities matching the open intent; a conflicting
	// holder elsewhere is flushed and invalidated first (§3.4). When a
	// revocation happened, the size we looked up may predate the other
	// client's flush — refetch it.
	kind := cluster.CapRead
	if flags.Writable() {
		kind = cluster.CapWrite
	}
	if c.clus.AcquireCaps(ctx, ino, kind, c) {
		c.lockedMeta(ctx, func() { delete(c.attrs, path) })
		var err error
		info, ino, err = c.lookupAttr(ctx, path)
		if err != nil {
			return nil, err
		}
	}
	f, _ := c.cache.File(ino, info.Size)
	if flags.Has(vfsapi.TRUNC) && flags.Writable() {
		c.lockedMeta(ctx, func() { c.dropCache(f) })
		f.Size = 0
		c.wire(ctx, 256)
		if err := c.clus.MetaSetSize(ctx, path, 0); err != nil {
			return nil, err
		}
		c.clus.TruncateObjects(ino, 0)
		c.lockedMeta(ctx, func() {
			if e, ok := c.attrs[path]; ok {
				e.info.Size = 0
				c.attrs[path] = e
			}
		})
	}
	return &chandle{c: c, f: f, path: path, flags: flags, gen: c.cache.Gen}, nil
}

// Stat returns metadata, preferring the client's newer size view.
func (c *Client) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return vfsapi.FileInfo{}, err
	}
	c.opCPU(ctx)
	info, ino, err := c.lookupAttr(ctx, path)
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
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	return c.clus.MetaMkdir(ctx, path)
}

// Readdir lists a directory at the MDS.
func (c *Client) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return nil, err
	}
	c.opCPU(ctx)
	c.wire(ctx, 512)
	return c.clus.MetaReaddir(ctx, path)
}

// Unlink removes a file, dropping local cache state.
func (c *Client) Unlink(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	if err := c.clus.MetaUnlink(ctx, path); err != nil {
		return err
	}
	c.lockedMeta(ctx, func() {
		if e, ok := c.attrs[path]; ok {
			if f, ok := c.cache.Lookup(e.ino); ok {
				f.Unlinked = true
				c.dropCache(f)
				c.cache.Forget(e.ino)
			}
			delete(c.paths, e.ino)
			delete(c.attrs, path)
		}
	})
	return nil
}

// Rmdir removes an empty directory at the MDS.
func (c *Client) Rmdir(ctx vfsapi.Ctx, path string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	return c.clus.MetaRmdir(ctx, path)
}

// Rename moves a file at the MDS and rewrites cached entries.
func (c *Client) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := c.failIfCrashed(ctx); err != nil {
		return err
	}
	c.opCPU(ctx)
	c.wire(ctx, 256)
	if err := c.clus.MetaRename(ctx, oldPath, newPath); err != nil {
		return err
	}
	c.lockedMeta(ctx, func() {
		if e, ok := c.attrs[oldPath]; ok {
			delete(c.attrs, oldPath)
			c.attrs[newPath] = e
			c.paths[e.ino] = newPath
		}
	})
	return nil
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
	if h.c.crashed || h.gen != h.c.cache.Gen {
		// Failing is not free: charge one operation's CPU so loops
		// erroring on a stale handle advance simulated time.
		h.c.opCPU(ctx)
		return ErrCrashed
	}
	return nil
}

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
	for h.f.X.revoked && !c.crashed && h.gen == c.cache.Gen {
		ino, size := h.f.Ino, h.f.Size
		c.clus.AcquireCaps(ctx, ino, cluster.CapWrite, c)
		c.lockedMeta(ctx, func() { delete(c.attrs, h.path) })
		if info, got, err := c.lookupAttr(ctx, h.path); err == nil && got == ino {
			size = info.Size
		} else if c.paths[ino] == h.path {
			delete(c.paths, ino) // gone from the namespace: push no size by path
		}
		h.f, _ = c.cache.File(ino, size)
	}
}

// Read serves from the object cache, fetching misses from the OSDs.
func (h *chandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, vfsapi.ErrClosed
	}
	c := h.c
	c.opCPU(ctx)
	if off >= h.f.Size {
		return 0, nil
	}
	if off+n > h.f.Size {
		n = h.f.Size - off
	}
	if n <= 0 {
		return 0, nil
	}
	c.lockedMeta(ctx, func() { c.cache.Touch(h.f) })
	// Readahead (libcephfs prefetches on sequential streams): grow the
	// fetch window while the stream stays sequential.
	fetchLen := h.ra.Extend(off, n, h.f.Size, cache.MaxReadahead)
	// Fetch misses with single-fetcher semantics: a range already being
	// fetched by another reader is awaited, not re-fetched (the page
	// in-flight locking of a real client).
	for {
		// The client can crash while this reader is parked on the fetch
		// queue or inside the backend read below; resume as a failure,
		// not as a cache insert against the restarted incarnation.
		if err := h.failIfStale(ctx); err != nil {
			return 0, err
		}
		var g extent.Extent
		wait := false
		c.lockedMeta(ctx, func() { g, wait = h.f.Claim(off, fetchLen) })
		if wait {
			c.fetchQ.WaitTimeout(ctx.P, c.params.DirtyThrottleCheck)
			continue
		}
		if g.Len == 0 {
			break
		}
		c.wire(ctx, g.Len)
		rerr := c.readBackend(ctx, h.f.Ino, g.Off, g.Len)
		if rerr != nil {
			// Release the in-flight claim before failing, or readers
			// waiting on this range would park forever.
			c.lockedMeta(ctx, func() { h.f.Fetching.Remove(g.Off, g.Len) })
			c.fetchQ.Broadcast()
			return 0, rerr
		}
		if err := h.failIfStale(ctx); err != nil {
			c.lockedMeta(ctx, func() { h.f.Fetching.Remove(g.Off, g.Len) })
			c.fetchQ.Broadcast()
			return 0, err
		}
		c.stats.MissBytes += g.Len
		c.cacheInsert(ctx, h.f, g.Off, g.Len)
		c.lockedMeta(ctx, func() { h.f.Fetching.Remove(g.Off, g.Len) })
		c.fetchQ.Broadcast()
	}
	// Copy out of the object cache (partially under client_lock).
	c.stats.ReadBytes += n
	c.copyData(ctx, n, false)
	return n, nil
}

// Write copies into the object cache and marks dirty, throttling at the
// client's dirty limit.
func (h *chandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if err := h.failIfStale(ctx); err != nil {
		return 0, err
	}
	if h.closed {
		return 0, vfsapi.ErrClosed
	}
	if !h.flags.Writable() && !h.flags.Has(vfsapi.CREATE) {
		return 0, vfsapi.ErrReadOnly
	}
	if n <= 0 {
		return 0, nil
	}
	c := h.c
	c.opCPU(ctx)
	h.recap(ctx)
	h.wrote = true
	c.stats.WriteBytes += n
	c.copyData(ctx, n, true)
	for {
		// copyData, recap and cacheInsert wait on client_lock; the
		// writer may resume on the far side of a crash and must fail
		// rather than dirty the restarted incarnation's cache through a
		// dead cfile, or after a revocation, which it recaps for.
		if err := h.failIfStale(ctx); err != nil {
			return 0, err
		}
		h.recap(ctx)
		c.cacheInsert(ctx, h.f, off, n)
		if end := off + n; end > h.f.Size {
			h.f.Size = end
		}
		if c.markDirty(ctx, h.f, off, n) {
			return n, nil
		}
	}
}

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
	c := h.c
	for h.f.Dirty.Len() > 0 {
		var exts []extent.Extent
		c.lockedMeta(ctx, func() { exts = h.f.Dirty.PopFirst(4 << 20) })
		var popped int64
		for _, e := range exts {
			popped += e.Len
		}
		var werr error
		for _, e := range exts {
			c.wire(ctx, e.Len)
			if werr = c.writePersist(ctx, h.f.Ino, e.Off, e.Len); werr != nil {
				break
			}
		}
		if err := h.failIfStale(ctx); err != nil {
			// Crashed mid-persist: the crash already zeroed the dirty
			// accounting with the rest of the cache, so decrementing the
			// popped extents here would double-count the loss.
			return err
		}
		// The popped extents left the dirty set either way; keep the
		// accounting consistent even on a failed persist (the client is
		// stopped — the data is lost, as a crash loses it).
		c.cache.DirtyBytes -= popped
		c.throttleQ.Broadcast()
		if werr != nil {
			return werr
		}
	}
	c.cache.Unlist(h.f)
	c.pushSize(ctx, h.f)
	return nil
}

// Close releases the handle, pushing the size for written files.
func (h *chandle) Close(ctx vfsapi.Ctx) error {
	defer ctx.Span.Enter(obs.LayerClient).Exit()
	if h.closed {
		return vfsapi.ErrClosed
	}
	if err := h.failIfStale(ctx); err != nil {
		// The handle is dead either way; report the crash but do not
		// push sizes from a pre-crash incarnation into the fresh cache.
		h.closed = true
		return err
	}
	h.closed = true
	h.c.opCPU(ctx)
	if h.wrote && !h.f.Unlinked {
		h.c.pushSize(ctx, h.f)
	}
	return nil
}
