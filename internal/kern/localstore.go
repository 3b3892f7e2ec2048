package kern

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/nstree"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// LocalStore is the ext4-like local filesystem backend: a namespace
// tree with a journal, storing file data on a disk array. Metadata
// mutations write a journal record; data lands at per-file virtual
// extents so sequential file I/O stays sequential on the spindles.
type LocalStore struct {
	eng     *sim.Engine
	tree    *nstree.Tree
	array   *disk.Array
	journal int64 // next journal offset (sequential region)
	nodes   map[uint64]*nstree.Node

	// fileRegion spaces files apart in the virtual disk address space
	// so distinct files require seeks between them.
	fileRegion int64
}

const journalRecordBytes = 4096

// NewLocalStore creates an ext4-like store over the given array.
func NewLocalStore(eng *sim.Engine, array *disk.Array) *LocalStore {
	return &LocalStore{
		eng:        eng,
		tree:       nstree.New(),
		array:      array,
		nodes:      map[uint64]*nstree.Node{},
		fileRegion: 8 << 30,
	}
}

// Tree exposes the namespace for zero-cost test provisioning.
func (s *LocalStore) Tree() *nstree.Tree { return s.tree }

// Provision creates a file of the given size without consuming time.
func (s *LocalStore) Provision(path string, size int64) error {
	if err := s.tree.MkdirAll(parentPath(path), 0); err != nil {
		return err
	}
	n, err := s.tree.Create(path, 0)
	if err != nil {
		return err
	}
	n.Size = size
	s.nodes[n.Ino] = n
	return nil
}

// ProvisionDir creates a directory tree without consuming time.
func (s *LocalStore) ProvisionDir(path string) error {
	return s.tree.MkdirAll(path, 0)
}

func parentPath(path string) string {
	parts := nstree.Split(path)
	out := ""
	for _, p := range parts[:max(0, len(parts)-1)] {
		out += "/" + p
	}
	if out == "" {
		return "/"
	}
	return out
}

// journalWrite appends one journal record (sequential disk write).
func (s *LocalStore) journalWrite(ctx vfsapi.Ctx) {
	s.array.Access(ctx.P, s.journal, journalRecordBytes, true)
	s.journal += journalRecordBytes
}

// metaCPU charges the in-kernel metadata path cost.
func (s *LocalStore) metaCPU(ctx vfsapi.Ctx, path string) {
	k := time.Duration(1+nstree.Depth(path)) * 400 * time.Nanosecond
	ctx.T.Exec(ctx.P, cpu.Kernel, k)
}

// Lookup resolves a path.
func (s *LocalStore) Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	s.metaCPU(ctx, path)
	n, err := s.tree.Lookup(path)
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	s.nodes[n.Ino] = n
	return n.Info(), n.Ino, nil
}

// Create makes a file (journaled).
func (s *LocalStore) Create(ctx vfsapi.Ctx, path string) (uint64, error) {
	s.metaCPU(ctx, path)
	n, err := s.tree.Create(path, s.eng.Now())
	if err != nil {
		return 0, err
	}
	s.nodes[n.Ino] = n
	s.journalWrite(ctx)
	return n.Ino, nil
}

// Mkdir makes a directory (journaled).
func (s *LocalStore) Mkdir(ctx vfsapi.Ctx, path string) error {
	s.metaCPU(ctx, path)
	if _, err := s.tree.Mkdir(path, s.eng.Now()); err != nil {
		return err
	}
	s.journalWrite(ctx)
	return nil
}

// Readdir lists a directory.
func (s *LocalStore) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	s.metaCPU(ctx, path)
	return s.tree.Readdir(path)
}

// Unlink removes a file (journaled).
func (s *LocalStore) Unlink(ctx vfsapi.Ctx, path string) (uint64, error) {
	s.metaCPU(ctx, path)
	n, err := s.tree.Unlink(path)
	if err != nil {
		return 0, err
	}
	s.journalWrite(ctx)
	delete(s.nodes, n.Ino)
	return n.Ino, nil
}

// Rmdir removes a directory (journaled).
func (s *LocalStore) Rmdir(ctx vfsapi.Ctx, path string) error {
	s.metaCPU(ctx, path)
	if err := s.tree.Rmdir(path); err != nil {
		return err
	}
	s.journalWrite(ctx)
	return nil
}

// Rename moves a path (journaled).
func (s *LocalStore) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	s.metaCPU(ctx, oldPath)
	if err := s.tree.Rename(oldPath, newPath, s.eng.Now()); err != nil {
		return err
	}
	s.journalWrite(ctx)
	return nil
}

// SetSize updates a file's size (journaled metadata update).
func (s *LocalStore) SetSize(ctx vfsapi.Ctx, ino uint64, size int64) error {
	n, ok := s.nodes[ino]
	if !ok {
		return vfsapi.ErrNotExist
	}
	if size > n.Size {
		n.Size = size
	} else if size == 0 {
		n.Size = 0
	}
	n.MTime = s.eng.Now()
	s.journalWrite(ctx)
	return nil
}

// ReadData reads from the file's disk extents.
func (s *LocalStore) ReadData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	s.array.Access(ctx.P, s.phys(ino, off), n, false)
}

// WriteData writes to the file's disk extents.
func (s *LocalStore) WriteData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	s.array.Access(ctx.P, s.phys(ino, off), n, true)
}

func (s *LocalStore) phys(ino uint64, off int64) int64 {
	return int64(ino%100000)*s.fileRegion + off
}
