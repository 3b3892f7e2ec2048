package kern

import (
	"fmt"

	"repro/internal/cacherun"
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
//
// Its Store namespace calls are the shared cacherun.Names: the dentry
// cache takes no lock, a crash check charges nothing (the mount's
// charged the system call), an unlinked path's ino is read before the
// MDS call, and a size push updates the cached size only once the MDS
// took it.
type CephStore struct {
	cacherun.Names
	kern *Kernel

	// retry runs data operations through replica failover and
	// unjittered backoff, counting faults.
	retry *cluster.Retrier

	// session identifies this client instance at the MDS. crashed fails
	// every operation with vfsapi.ErrCrashed until RestartStore reclaims
	// the session.
	session string
	crashed bool
}

// NewCephStore creates a kernel Ceph client store against the cluster
// and registers its MDS session.
func NewCephStore(k *Kernel, clus *cluster.Cluster) *CephStore {
	s := &CephStore{kern: k}
	s.Names = cacherun.Names{Clus: clus, Crashed: &s.crashed, Op: cpu.Charge(cpu.Kernel, k.params.KernelClientOpCost),
		Wire: s.wire, InoFirst: true}
	s.Reset()
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
	s.Reset()
}

// RestartStore runs the recovery protocol of a restarted kernel client:
// one MDS round trip reclaims the session, fencing the dead incarnation
// and issuing a fresh epoch, after which the store serves traffic with
// cold caches.
func (s *CephStore) RestartStore(ctx vfsapi.Ctx) error {
	if _, err := s.Clus.ReclaimSession(ctx, s.session); err != nil {
		return err
	}
	s.crashed = false
	return nil
}

// message writes to w an operation's charge and wire's for a message
// of n bytes (the request runs' wire steps), and returns how many.
func (s *CephStore) message(t *cpu.Thread, n int64, w []cpu.Step) int {
	w[0] = s.Op
	return 1 + s.wire(t, n, w[1:])
}

// wire writes to w the kernel-mode protocol and checksum charges of n
// wire bytes, element by element so that no caller's frame holds a
// copy, and returns how many (the namespace calls' wire steps).
func (s *CephStore) wire(_ *cpu.Thread, n int64, w []cpu.Step) int {
	p := s.kern.params
	w[0] = cpu.Charge(cpu.Kernel, p.NetOpCost)
	w[1] = cpu.Charge(cpu.Kernel, model.RateTime(n, p.NetCPUBytesPerSec))
	w[2] = cpu.Charge(cpu.Kernel, model.RateTime(n, p.ChecksumBytesPerSec))
	return 3
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
	ctx.T.Chain(ctx.P, s.Op)
	s.Send(ctx, n)
	s.retry.Do(ctx, false, func(_, member int) error {
		if member == 0 {
			return s.Clus.Read(ctx, ino, off, n)
		}
		return s.Clus.ReadReplica(ctx, ino, off, n, member)
	})
}

// WriteData stores object data on the OSDs, advancing the acting
// primary through the replication group on retries.
func (s *CephStore) WriteData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	if s.crashed {
		return
	}
	ctx.T.Chain(ctx.P, s.Op)
	s.Send(ctx, n)
	s.retry.Do(ctx, false, func(_, member int) error {
		return s.Clus.WriteReplica(ctx, ino, off, n, member)
	})
}
