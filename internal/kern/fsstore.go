package kern

import (
	"repro/internal/vfsapi"
)

// FSStore adapts any vfsapi.FileSystem into a kernel mount Store. It is
// how the kernel page cache stacks on top of a FUSE mount (the FP and
// FP/FP configurations, where the kernel AND the user-level client both
// cache the same data — the double-caching memory blowup of Fig 11b).
//
// FSStore synthesizes its own inode numbers and keeps per-file handles
// open on the inner filesystem for the data path.
type FSStore struct {
	inner vfsapi.FileSystem

	nextIno uint64
	inoOf   map[string]uint64
	pathOf  map[uint64]string
	handles map[uint64]vfsapi.Handle
}

// NewFSStore wraps inner as a Store.
func NewFSStore(inner vfsapi.FileSystem) *FSStore {
	return &FSStore{
		inner:   inner,
		inoOf:   map[string]uint64{},
		pathOf:  map[uint64]string{},
		handles: map[uint64]vfsapi.Handle{},
	}
}

func (s *FSStore) ino(path string) uint64 {
	if ino, ok := s.inoOf[path]; ok {
		return ino
	}
	s.nextIno++
	s.inoOf[path] = s.nextIno
	s.pathOf[s.nextIno] = path
	return s.nextIno
}

func (s *FSStore) forget(path string) {
	if ino, ok := s.inoOf[path]; ok {
		delete(s.inoOf, path)
		delete(s.pathOf, ino)
		delete(s.handles, ino)
	}
}

// handle returns an open read-write handle on the inner filesystem for
// ino's path, opening lazily.
func (s *FSStore) handle(ctx vfsapi.Ctx, ino uint64) (vfsapi.Handle, error) {
	if h, ok := s.handles[ino]; ok {
		return h, nil
	}
	path, ok := s.pathOf[ino]
	if !ok {
		return nil, vfsapi.ErrNotExist
	}
	h, err := s.inner.Open(ctx, path, vfsapi.RDWR)
	if err != nil {
		return nil, err
	}
	s.handles[ino] = h
	return h, nil
}

// ForwardOpen propagates an application's open to the inner filesystem
// with the caller's true intent, so semantics that trigger at open time
// below the page cache (union copy-up, truncation) happen when the
// application opens the file — not when writeback eventually pushes
// data down. The opened handle is retained for the data path.
func (s *FSStore) ForwardOpen(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) error {
	// The store keeps one long-lived handle per file; reopen with the
	// write-intent flags when needed.
	ino := s.ino(path)
	if h, ok := s.handles[ino]; ok {
		if !flags.Writable() {
			return nil // existing handle suffices for reads
		}
		h.Close(ctx)
		delete(s.handles, ino)
	}
	h, err := s.inner.Open(ctx, path, flags&^vfsapi.APPEND|vfsapi.RDWR)
	if err != nil {
		return err
	}
	s.handles[ino] = h
	return nil
}

// Lookup resolves a path on the inner filesystem.
func (s *FSStore) Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	info, err := s.inner.Stat(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	return info, s.ino(path), nil
}

// Create makes a file on the inner filesystem.
func (s *FSStore) Create(ctx vfsapi.Ctx, path string) (uint64, error) {
	h, err := s.inner.Open(ctx, path, vfsapi.CREATE|vfsapi.RDWR)
	if err != nil {
		return 0, err
	}
	ino := s.ino(path)
	s.handles[ino] = h
	return ino, nil
}

// Mkdir forwards to the inner filesystem.
func (s *FSStore) Mkdir(ctx vfsapi.Ctx, path string) error { return s.inner.Mkdir(ctx, path) }

// Readdir forwards to the inner filesystem.
func (s *FSStore) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	return s.inner.Readdir(ctx, path)
}

// Unlink forwards and forgets local state.
func (s *FSStore) Unlink(ctx vfsapi.Ctx, path string) (uint64, error) {
	ino := s.ino(path)
	if h, ok := s.handles[ino]; ok {
		h.Close(ctx)
	}
	if err := s.inner.Unlink(ctx, path); err != nil {
		return 0, err
	}
	s.forget(path)
	return ino, nil
}

// Rmdir forwards to the inner filesystem.
func (s *FSStore) Rmdir(ctx vfsapi.Ctx, path string) error { return s.inner.Rmdir(ctx, path) }

// Rename forwards and rewrites the ino maps; a file newPath replaced is
// closed and forgotten, as Unlink does.
func (s *FSStore) Rename(ctx vfsapi.Ctx, oldPath, newPath string) (uint64, error) {
	var replaced uint64 // inos start at 1
	if newPath != oldPath {
		replaced = s.inoOf[newPath]
	}
	if h, ok := s.handles[replaced]; ok {
		h.Close(ctx)
	}
	if err := s.inner.Rename(ctx, oldPath, newPath); err != nil {
		return 0, err
	}
	if replaced != 0 {
		s.forget(newPath)
	}
	if ino, ok := s.inoOf[oldPath]; ok {
		delete(s.inoOf, oldPath)
		s.inoOf[newPath] = ino
		s.pathOf[ino] = newPath
	}
	return replaced, nil
}

// SetSize truncates through the inner filesystem when shrinking to
// zero; size growth is implied by the data writes themselves.
func (s *FSStore) SetSize(ctx vfsapi.Ctx, ino uint64, size int64) error {
	if size != 0 {
		return nil
	}
	path, ok := s.pathOf[ino]
	if !ok {
		return vfsapi.ErrNotExist
	}
	if h, ok := s.handles[ino]; ok {
		h.Close(ctx)
		delete(s.handles, ino)
	}
	h, err := s.inner.Open(ctx, path, vfsapi.WRONLY|vfsapi.TRUNC)
	if err != nil {
		return err
	}
	s.handles[ino] = h
	return nil
}

// ReadData reads through the per-file inner handle.
func (s *FSStore) ReadData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	if h, err := s.handle(ctx, ino); err == nil {
		h.Read(ctx, off, n)
	}
}

// WriteData writes through the per-file inner handle.
func (s *FSStore) WriteData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	if h, err := s.handle(ctx, ino); err == nil {
		h.Write(ctx, off, n)
	}
}

// Fsync forwards a sync barrier to the inner filesystem: WriteData
// only moved pages into the inner cache (the FUSE daemon's user-level
// client), so durability requires the inner handle's own fsync — the
// FUSE_FSYNC the kernel sends the daemon on an application fsync.
func (s *FSStore) Fsync(ctx vfsapi.Ctx, ino uint64) error {
	h, err := s.handle(ctx, ino)
	if err != nil {
		return err
	}
	return h.Fsync(ctx)
}
