package core

import (
	"sort"
	"strings"

	"repro/internal/vfsapi"
)

// Library is the Danaus filesystem library preloaded into an
// application process (the front driver): it owns the process's mount
// table and library file table, routes each path to the filesystem
// service owning its mount point, and passes anything else to the
// kernel fallback — the dual interface of §3.2.
type Library struct {
	mounts   []libMount // sorted by descending prefix length
	fallback vfsapi.FileSystem
	files    []*libOpenFile // index = private fd
	freeFDs  []int
}

type libMount struct {
	point string
	fs    vfsapi.FileSystem
}

// libOpenFile is one entry of the library file table. Exactly one of
// handle, dir or pipe is set: the table is overloaded for regular
// files, directory streams and pipe endpoints (§4.1).
type libOpenFile struct {
	handle vfsapi.Handle
	path   string
	pos    int64

	dir      *dirStream
	pipe     *pipeState
	pipeRead bool
}

// NewLibrary creates a library with an optional kernel fallback for
// paths outside every Danaus mount.
func NewLibrary(fallback vfsapi.FileSystem) *Library {
	return &Library{fallback: fallback}
}

// AttachMount registers a filesystem service mount at a path prefix.
func (l *Library) AttachMount(point string, fs vfsapi.FileSystem) {
	point = strings.TrimSuffix(point, "/")
	l.mounts = append(l.mounts, libMount{point: point, fs: fs})
	sort.SliceStable(l.mounts, func(i, j int) bool {
		return len(l.mounts[i].point) > len(l.mounts[j].point)
	})
}

// route resolves a path to (filesystem, path inside it).
func (l *Library) route(path string) (vfsapi.FileSystem, string, error) {
	for _, m := range l.mounts {
		if m.point == "" {
			return m.fs, path, nil
		}
		if path == m.point {
			return m.fs, "/", nil
		}
		if strings.HasPrefix(path, m.point+"/") {
			return m.fs, path[len(m.point):], nil
		}
	}
	if l.fallback != nil {
		return l.fallback, path, nil
	}
	return nil, "", vfsapi.ErrNotExist
}

// OpenFD opens a file and returns a private file descriptor from the
// library file table.
func (l *Library) OpenFD(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (int, error) {
	fs, rel, err := l.route(path)
	if err != nil {
		return -1, err
	}
	h, err := fs.Open(ctx, rel, flags)
	if err != nil {
		return -1, err
	}
	of := &libOpenFile{handle: h, path: path}
	if flags.Has(vfsapi.APPEND) {
		of.pos = h.Size()
	}
	if n := len(l.freeFDs); n > 0 {
		fd := l.freeFDs[n-1]
		l.freeFDs = l.freeFDs[:n-1]
		l.files[fd] = of
		return fd, nil
	}
	l.files = append(l.files, of)
	return len(l.files) - 1, nil
}

func (l *Library) file(fd int) (*libOpenFile, error) {
	if fd < 0 || fd >= len(l.files) || l.files[fd] == nil {
		return nil, vfsapi.ErrClosed
	}
	return l.files[fd], nil
}

// ReadFD reads n bytes at the current position, advancing it.
func (l *Library) ReadFD(ctx vfsapi.Ctx, fd int, n int64) (int64, error) {
	of, err := l.regular(fd)
	if err != nil {
		return 0, err
	}
	got, err := of.handle.Read(ctx, of.pos, n)
	of.pos += got
	return got, err
}

// WriteFD writes n bytes at the current position, advancing it.
func (l *Library) WriteFD(ctx vfsapi.Ctx, fd int, n int64) (int64, error) {
	of, err := l.regular(fd)
	if err != nil {
		return 0, err
	}
	got, err := of.handle.Write(ctx, of.pos, n)
	of.pos += got
	return got, err
}

// PReadFD reads at an explicit offset without moving the position.
func (l *Library) PReadFD(ctx vfsapi.Ctx, fd int, off, n int64) (int64, error) {
	of, err := l.file(fd)
	if err != nil {
		return 0, err
	}
	return of.handle.Read(ctx, off, n)
}

// SeekFD sets the file position.
func (l *Library) SeekFD(fd int, pos int64) error {
	of, err := l.file(fd)
	if err != nil {
		return err
	}
	of.pos = pos
	return nil
}

// FsyncFD flushes the file.
func (l *Library) FsyncFD(ctx vfsapi.Ctx, fd int) error {
	of, err := l.file(fd)
	if err != nil {
		return err
	}
	return of.handle.Fsync(ctx)
}

// CloseFD closes the descriptor and recycles it, whatever kind of
// entry it holds.
func (l *Library) CloseFD(ctx vfsapi.Ctx, fd int) error {
	of, err := l.file(fd)
	if err != nil {
		return err
	}
	l.files[fd] = nil
	l.freeFDs = append(l.freeFDs, fd)
	if of.pipe != nil {
		of.pipe.closed++
		return nil
	}
	if of.dir != nil {
		return nil
	}
	return of.handle.Close(ctx)
}

// ReadFD/WriteFD and friends require a regular file entry.
func (l *Library) regular(fd int) (*libOpenFile, error) {
	of, err := l.file(fd)
	if err != nil {
		return nil, err
	}
	if of.handle == nil {
		return nil, vfsapi.ErrBadFlags
	}
	return of, nil
}

// OpenFDs returns the number of live descriptors (diagnostics).
func (l *Library) OpenFDs() int {
	n := 0
	for _, f := range l.files {
		if f != nil {
			n++
		}
	}
	return n
}

// Path-level helpers routed through the mount table.

// Stat resolves path metadata.
func (l *Library) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	fs, rel, err := l.route(path)
	if err != nil {
		return vfsapi.FileInfo{}, err
	}
	return fs.Stat(ctx, rel)
}

// Mkdir creates a directory.
func (l *Library) Mkdir(ctx vfsapi.Ctx, path string) error {
	fs, rel, err := l.route(path)
	if err != nil {
		return err
	}
	return fs.Mkdir(ctx, rel)
}

// Readdir lists a directory.
func (l *Library) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	fs, rel, err := l.route(path)
	if err != nil {
		return nil, err
	}
	return fs.Readdir(ctx, rel)
}

// Unlink removes a file.
func (l *Library) Unlink(ctx vfsapi.Ctx, path string) error {
	fs, rel, err := l.route(path)
	if err != nil {
		return err
	}
	return fs.Unlink(ctx, rel)
}

// Rename moves a file within one mount.
func (l *Library) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	fs, relOld, err := l.route(oldPath)
	if err != nil {
		return err
	}
	fs2, relNew, err := l.route(newPath)
	if err != nil {
		return err
	}
	if fs != fs2 {
		return vfsapi.ErrBadFlags
	}
	return fs.Rename(ctx, relOld, relNew)
}
