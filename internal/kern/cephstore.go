package kern

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/vfsapi"
)

// CephStore is the kernel Ceph client backend (configuration K): VFS
// requests reach the cluster over the network, with an in-kernel
// attribute/dentry cache avoiding repeated MDS round trips. Wire
// transfers pay checksum and protocol CPU in kernel mode on the calling
// thread (or the roaming flusher thread during writeback — the
// mechanism that lets the kernel client consume foreign pool cores).
type CephStore struct {
	kern *Kernel
	clus *cluster.Cluster

	attrs map[string]attrEntry // dentry/attribute cache
	paths map[uint64]string    // ino -> authoritative path

	// retry runs data operations through replica failover and
	// unjittered backoff, counting faults.
	retry *cluster.Retrier

	// session identifies this client instance at the MDS. crashed fails
	// every operation with vfsapi.ErrCrashed until RestartStore reclaims
	// the session.
	session string
	crashed bool
}

type attrEntry struct {
	info vfsapi.FileInfo
	ino  uint64
}

// NewCephStore creates a kernel Ceph client store against the cluster
// and registers its MDS session.
func NewCephStore(k *Kernel, clus *cluster.Cluster) *CephStore {
	s := &CephStore{
		kern:  k,
		clus:  clus,
		attrs: map[string]attrEntry{},
		paths: map[uint64]string{},
	}
	s.retry = clus.NewRetrier(&s.crashed, &k.stopped, 0, nil)
	s.session = fmt.Sprintf("kclient%d", clus.SessionCount())
	clus.OpenSession(s.session, nil)
	return s
}

// CrashStore kills the kernel client's cluster-facing state: the
// attribute cache goes cold and every operation fails with
// vfsapi.ErrCrashed until RestartStore reclaims the MDS session.
func (s *CephStore) CrashStore() {
	s.crashed = true
	s.attrs = map[string]attrEntry{}
	s.paths = map[uint64]string{}
}

// RestartStore runs the recovery protocol of a restarted kernel client:
// one MDS round trip reclaims the session, fencing the dead incarnation
// and issuing a fresh epoch, after which the store serves traffic with
// cold caches.
func (s *CephStore) RestartStore(ctx vfsapi.Ctx) error {
	if _, err := s.clus.ReclaimSession(ctx, s.session); err != nil {
		return err
	}
	s.crashed = false
	return nil
}

func (s *CephStore) opCPU(ctx vfsapi.Ctx) {
	ctx.T.Exec(ctx.P, cpu.Kernel, s.kern.params.KernelClientOpCost)
}

// wireCPU charges protocol + checksum processing for n wire bytes.
func (s *CephStore) wireCPU(ctx vfsapi.Ctx, n int64) {
	p := s.kern.params
	ctx.T.Chain(ctx.P, cpu.Charge(cpu.Kernel, p.NetOpCost),
		cpu.Charge(cpu.Kernel, model.RateTime(n, p.NetCPUBytesPerSec)),
		cpu.Charge(cpu.Kernel, model.RateTime(n, p.ChecksumBytesPerSec)))
}

// Lookup resolves a path, serving repeated lookups from the attribute
// cache.
func (s *CephStore) Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	if s.crashed {
		return vfsapi.FileInfo{}, 0, vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	if e, ok := s.attrs[path]; ok {
		return e.info, e.ino, nil
	}
	s.wireCPU(ctx, 256)
	info, ino, err := s.clus.MetaLookup(ctx, path)
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	s.attrs[path] = attrEntry{info: info, ino: ino}
	s.paths[ino] = path
	return info, ino, nil
}

// Create makes a file at the MDS.
func (s *CephStore) Create(ctx vfsapi.Ctx, path string) (uint64, error) {
	if s.crashed {
		return 0, vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, 256)
	ino, err := s.clus.MetaCreate(ctx, path)
	if err != nil {
		return 0, err
	}
	s.attrs[path] = attrEntry{info: vfsapi.FileInfo{Name: path}, ino: ino}
	s.paths[ino] = path
	return ino, nil
}

// Mkdir creates a directory at the MDS.
func (s *CephStore) Mkdir(ctx vfsapi.Ctx, path string) error {
	if s.crashed {
		return vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, 256)
	return s.clus.MetaMkdir(ctx, path)
}

// Readdir lists a directory at the MDS.
func (s *CephStore) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	if s.crashed {
		return nil, vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, 512)
	return s.clus.MetaReaddir(ctx, path)
}

// Unlink removes a file at the MDS and invalidates the cached entry.
func (s *CephStore) Unlink(ctx vfsapi.Ctx, path string) (uint64, error) {
	if s.crashed {
		return 0, vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	var ino uint64
	if e, ok := s.attrs[path]; ok {
		ino = e.ino
	}
	s.wireCPU(ctx, 256)
	if err := s.clus.MetaUnlink(ctx, path); err != nil {
		return 0, err
	}
	delete(s.attrs, path)
	delete(s.paths, ino)
	return ino, nil
}

// Rmdir removes a directory at the MDS.
func (s *CephStore) Rmdir(ctx vfsapi.Ctx, path string) error {
	if s.crashed {
		return vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, 256)
	return s.clus.MetaRmdir(ctx, path)
}

// Rename moves a file at the MDS, rewriting the cached entries.
func (s *CephStore) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	if s.crashed {
		return vfsapi.ErrCrashed
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, 256)
	if err := s.clus.MetaRename(ctx, oldPath, newPath); err != nil {
		return err
	}
	if e, ok := s.attrs[oldPath]; ok {
		delete(s.attrs, oldPath)
		s.attrs[newPath] = e
		s.paths[e.ino] = newPath
	}
	return nil
}

// SetSize pushes the file size to the MDS.
func (s *CephStore) SetSize(ctx vfsapi.Ctx, ino uint64, size int64) error {
	if s.crashed {
		return vfsapi.ErrCrashed
	}
	path, ok := s.paths[ino]
	if !ok {
		return vfsapi.ErrNotExist
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, 256)
	if err := s.clus.MetaSetSize(ctx, path, size); err != nil {
		return err
	}
	if e, ok := s.attrs[path]; ok {
		if size > e.info.Size || size == 0 {
			e.info.Size = size
		}
		s.attrs[path] = e
	}
	return nil
}

// FaultStats returns a snapshot of the store's fault-handling
// counters.
func (s *CephStore) FaultStats() metrics.FaultCounters { return s.retry.Faults }

// ReadData fetches object data from the OSDs, failing over to ring
// replicas and retrying until the read completes. The kernel client
// blocks like the real CephFS mount: there is no per-op deadline and no
// retry bound — the process hangs in D state until the backend recovers
// (the containment contrast with the bounded user-level client). Only a
// crash or kernel shutdown ends the loop early.
func (s *CephStore) ReadData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	if s.crashed {
		return
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, n)
	s.retry.Do(ctx, false, func(_, member int) error {
		if member == 0 {
			return s.clus.Read(ctx, ino, off, n)
		}
		return s.clus.ReadReplica(ctx, ino, off, n, member)
	})
}

// WriteData stores object data on the OSDs, advancing the acting
// primary through the replication group on retries.
func (s *CephStore) WriteData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	if s.crashed {
		return
	}
	s.opCPU(ctx)
	s.wireCPU(ctx, n)
	s.retry.Do(ctx, false, func(_, member int) error {
		return s.clus.WriteReplica(ctx, ino, off, n, member)
	})
}
