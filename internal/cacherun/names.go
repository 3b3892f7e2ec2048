package cacherun

import (
	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/vfsapi"
)

// Names is the namespace path both clients share, run in the calling
// process: the attribute/dentry cache and the MDS round trips. Each call
// of the kernel's Store form is a crash check, the operation's CPU, then
// its uncharged step: the wire CPU, the MDS request and the cache
// update. The user-level client's Open calls the uncharged steps,
// having charged the operation. What differs between the clients is a
// value below.
type Names struct {
	Clus    *cluster.Cluster
	Crashed *bool    // the client crashed: every call fails
	Crash   cpu.Step // the charge of a crash check that fails a call
	Op      cpu.Step // the charge of one operation
	Dentry  Lock     // taken, with its hold, by each access to the cache
	// Wire writes a message's CPU charges to w, as Steps.Wire does.
	Wire func(t *cpu.Thread, n int64, w []cpu.Step) int
	// InoFirst reads an unlinked path's ino before the MDS call, not
	// after it.
	InoFirst bool
	// PushedAnyway lets a pushed size grow the cached one whatever the
	// push's error, and reports none; otherwise only a push the MDS took
	// updates it, growing or zeroing it, and its error is reported.
	PushedAnyway bool
	// Unlinked, if set, drops the data of the file of ino, which an
	// Unlink or a Rename took its name from, holding Dentry.
	Unlinked func(ino uint64)

	attrs map[string]attr
	paths map[uint64]string
	wire  [5]cpu.Step // Wire's steps, until the chain that charges them copies them
}

// attr is a path's cached attributes and ino.
type attr struct {
	info vfsapi.FileInfo
	ino  uint64
}

// Reset empties the cache: a new client's, or a crashed one's.
func (n *Names) Reset() {
	n.attrs, n.paths = map[string]attr{}, map[uint64]string{}
}

func (n *Names) lock(ctx vfsapi.Ctx) {
	if l := &n.Dentry; l.M != nil {
		ctx.T.LockedChain(ctx.P, l.M, ctx.Span, l.Name, l.Hold)
	}
}

func (n *Names) unlock(ctx vfsapi.Ctx) {
	if m := n.Dentry.M; m != nil {
		m.Unlock(ctx.P)
	}
}

func (n *Names) begin(ctx vfsapi.Ctx) error {
	if *n.Crashed {
		ctx.T.Chain(ctx.P, n.Crash)
		return vfsapi.ErrCrashed
	}
	ctx.T.Chain(ctx.P, n.Op)
	return nil
}

// Send charges the wire CPU of a message of bytes on ctx's thread.
func (n *Names) Send(ctx vfsapi.Ctx, bytes int64) {
	ctx.T.Chain(ctx.P, n.wire[:n.Wire(ctx.T, bytes, n.wire[:])]...)
}

func (n *Names) meta(ctx vfsapi.Ctx, bytes int64, q cluster.MetaQuery) (cluster.MetaReply, error) {
	n.Send(ctx, bytes)
	return n.Clus.Meta(ctx, q)
}

// Cached returns the cached attributes and ino of path, and whether it
// is cached. The caller holds Dentry.
func (n *Names) Cached(path string) (vfsapi.FileInfo, uint64, bool) {
	a, ok := n.attrs[path]
	return a.info, a.ino, ok
}

// Path returns the path the file of ino was last cached under.
func (n *Names) Path(ino uint64) (string, bool) {
	path, ok := n.paths[ino]
	return path, ok
}

// Lookup resolves path, from the cache or at the MDS.
func (n *Names) Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	if err := n.begin(ctx); err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	return n.resolve(ctx, path)
}

func (n *Names) resolve(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	n.lock(ctx)
	a, hit := n.attrs[path]
	n.unlock(ctx)
	if hit {
		return a.info, a.ino, nil
	}
	return n.Fetch(ctx, path)
}

// Refresh drops the attributes of path, which a capability revocation
// left stale, and resolves it again, uncharged.
func (n *Names) Refresh(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	n.lock(ctx)
	delete(n.attrs, path)
	n.unlock(ctx)
	return n.resolve(ctx, path)
}

// Fetch looks path up at the MDS and caches its attributes, uncharged.
func (n *Names) Fetch(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	rep, err := n.meta(ctx, 256, cluster.MetaQuery{Op: cluster.MetaLookup, Path: path})
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	n.lock(ctx)
	defer n.unlock(ctx)
	return n.Looked(path, rep, nil)
}

// Looked caches what the MDS lookup of path returned, for a caller that
// holds Dentry or has none: a request run.
func (n *Names) Looked(path string, rep cluster.MetaReply, err error) (vfsapi.FileInfo, uint64, error) {
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	n.attrs[path] = attr{info: rep.Info, ino: rep.Ino}
	n.paths[rep.Ino] = path
	return rep.Info, rep.Ino, nil
}

// Create makes a file at the MDS.
func (n *Names) Create(ctx vfsapi.Ctx, path string) (uint64, error) {
	if err := n.begin(ctx); err != nil {
		return 0, err
	}
	return n.Make(ctx, path)
}

// Make is Create uncharged.
func (n *Names) Make(ctx vfsapi.Ctx, path string) (uint64, error) {
	rep, err := n.meta(ctx, 256, cluster.MetaQuery{Op: cluster.MetaCreate, Path: path})
	if err != nil {
		return 0, err
	}
	rep.Info = vfsapi.FileInfo{Name: path} // a new file, as a lookup finds it
	n.lock(ctx)
	defer n.unlock(ctx)
	n.Looked(path, rep, nil)
	return rep.Ino, nil
}

// Mkdir creates a directory at the MDS.
func (n *Names) Mkdir(ctx vfsapi.Ctx, path string) error {
	_, err := n.call(ctx, 256, cluster.MetaQuery{Op: cluster.MetaMkdir, Path: path})
	return err
}

// Rmdir removes a directory at the MDS.
func (n *Names) Rmdir(ctx vfsapi.Ctx, path string) error {
	_, err := n.call(ctx, 256, cluster.MetaQuery{Op: cluster.MetaRmdir, Path: path})
	return err
}

// Readdir lists a directory at the MDS.
func (n *Names) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	rep, err := n.call(ctx, 512, cluster.MetaQuery{Op: cluster.MetaReaddir, Path: path})
	return rep.Ents, err
}

// call is a call that leaves the cache alone.
func (n *Names) call(ctx vfsapi.Ctx, bytes int64, q cluster.MetaQuery) (cluster.MetaReply, error) {
	if err := n.begin(ctx); err != nil {
		return cluster.MetaReply{}, err
	}
	return n.meta(ctx, bytes, q)
}

// Unlink removes a file at the MDS and drops its cached entry, and
// returns the ino cached for path (see InoFirst), 0 for none.
func (n *Names) Unlink(ctx vfsapi.Ctx, path string) (uint64, error) {
	if err := n.begin(ctx); err != nil {
		return 0, err
	}
	var ino uint64
	if n.InoFirst {
		n.lock(ctx)
		ino = n.attrs[path].ino
		n.unlock(ctx)
	}
	if _, err := n.meta(ctx, 256, cluster.MetaQuery{Op: cluster.MetaUnlink, Path: path}); err != nil {
		return 0, err
	}
	n.lock(ctx)
	defer n.unlock(ctx)
	if !n.InoFirst {
		ino = n.attrs[path].ino
	}
	n.unlinked(path, ino)
	return ino, nil
}

func (n *Names) unlinked(path string, ino uint64) {
	if ino != 0 && n.Unlinked != nil {
		n.Unlinked(ino)
	}
	delete(n.attrs, path)
	delete(n.paths, ino)
}

// Rename moves a file at the MDS and its cached entry. A file newPath
// replaced is dropped, as Unlink drops it, and its ino returned (0 for
// none).
func (n *Names) Rename(ctx vfsapi.Ctx, oldPath, newPath string) (uint64, error) {
	if err := n.begin(ctx); err != nil {
		return 0, err
	}
	if _, err := n.meta(ctx, 256, cluster.MetaQuery{Op: cluster.MetaRename, Path: oldPath, Path2: newPath}); err != nil {
		return 0, err
	}
	n.lock(ctx)
	defer n.unlock(ctx)
	var replaced uint64
	if a, ok := n.attrs[newPath]; ok && newPath != oldPath {
		replaced = a.ino
		n.unlinked(newPath, a.ino)
	}
	if a, ok := n.attrs[oldPath]; ok {
		delete(n.attrs, oldPath)
		n.attrs[newPath] = a
		n.paths[a.ino] = newPath
	}
	return replaced, nil
}

// SetSize pushes the size of the file of ino to the MDS, by the path it
// is cached under.
func (n *Names) SetSize(ctx vfsapi.Ctx, ino uint64, size int64) error {
	path, ok := n.paths[ino]
	if !ok && !*n.Crashed {
		return vfsapi.ErrNotExist
	}
	if err := n.begin(ctx); err != nil {
		return err
	}
	return n.Push(ctx, path, size)
}

// Push is SetSize by path, uncharged.
func (n *Names) Push(ctx vfsapi.Ctx, path string, size int64) error {
	_, err := n.meta(ctx, 256, cluster.MetaQuery{Op: cluster.MetaSetSize, Path: path, Size: size})
	return n.SizePushed(path, size, err)
}

// SizePushed updates the cached size of path once the MDS's push of
// size ended with err (see PushedAnyway), and returns the error to
// report.
func (n *Names) SizePushed(path string, size int64, err error) error {
	a, ok := n.attrs[path]
	if n.PushedAnyway {
		ok, err = ok && size > a.info.Size, nil
	} else {
		ok = ok && err == nil && (size > a.info.Size || size == 0)
	}
	if ok {
		a.info.Size = size
		n.attrs[path] = a
	}
	return err
}

// Truncate truncates path, the file of ino, to zero at the MDS, drops
// its objects and zeroes its cached size.
func (n *Names) Truncate(ctx vfsapi.Ctx, path string, ino uint64) error {
	if _, err := n.meta(ctx, 256, cluster.MetaQuery{Op: cluster.MetaSetSize, Path: path}); err != nil {
		return err
	}
	n.Clus.TruncateObjects(ino, 0)
	n.lock(ctx)
	defer n.unlock(ctx)
	if a, ok := n.attrs[path]; ok {
		a.info.Size = 0
		n.attrs[path] = a
	}
	return nil
}

// Forget drops the attributes of the path of ino, which a capability
// revocation left stale.
func (n *Names) Forget(ino uint64) {
	if path, ok := n.paths[ino]; ok {
		delete(n.attrs, path)
	}
}

// Unmap forgets that ino is at path, if it is: the file left the
// namespace there, so no size is pushed by path.
func (n *Names) Unmap(ino uint64, path string) {
	if n.paths[ino] == path {
		delete(n.paths, ino)
	}
}
