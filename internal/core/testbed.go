// Package core implements the paper's contribution: the Danaus client
// architecture. It provides the container engine (pools as cgroup
// cpuset + memory reservations), the per-tenant filesystem services
// built from union and client libservices behind shared-memory IPC, the
// dual interface (default user-level path, legacy FUSE path), and the
// composition of every comparison configuration of Table 1 on a shared
// testbed of one client host and one Ceph-like cluster.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/kern"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Testbed is the full experimental environment: the multicore client
// host (kernel, local disks) and the storage cluster, matching Fig 5.
type Testbed struct {
	Eng     *sim.Engine
	Params  *model.Params
	CPU     *cpu.CPU
	Kernel  *kern.Kernel
	Cluster *cluster.Cluster
	// LocalArray is the client's 4-disk RAID0 used by the RND and WBS
	// local workloads.
	LocalArray *disk.Array
	// LocalFS is the ext4-like kernel filesystem on the array.
	LocalFS *kern.Mount
	// LocalStore is the backing store of LocalFS (for provisioning).
	LocalStore *kern.LocalStore
	// Obs is the attached observability recorder (nil = disabled). Set
	// it via AttachObserver before creating pools so their mounts are
	// traced.
	Obs *obs.Recorder
	// Overload is the client-side overload protection policy (nil =
	// unprotected, the historical behaviour). Pools created after it is
	// set get admission control and circuit breakers.
	Overload *OverloadPolicy
	// Monitor is the attached live telemetry monitor (nil = disabled).
	// Set it via AttachMonitor after AttachObserver.
	Monitor *telemetry.Monitor

	pools   []*Pool
	stopped bool

	// crashLog records every client crash and its recovery (see
	// crash.go); entries are pointers so the asynchronous recovery
	// process can close them in place.
	crashLog []*CrashEvent
}

// TestbedConfig sizes the testbed.
type TestbedConfig struct {
	// Cores activated on the client host (the paper activates twice
	// the number of running instances, 4-64).
	Cores int
	// Params overrides the cost model (nil = calibrated defaults).
	Params *model.Params
	// Overload enables client-side overload protection for every pool
	// (nil keeps the unprotected behaviour).
	Overload *OverloadPolicy
}

const (
	// clusterOSDs is the storage cluster size (paper: 6).
	clusterOSDs = 6
	// localMemBytes bounds the page cache of the local ext4 filesystem.
	localMemBytes = 8 << 30
)

// NewTestbed builds the environment of Fig 5.
func NewTestbed(cfg TestbedConfig) *Testbed {
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	params := cfg.Params
	if params == nil {
		params = model.Default()
	}
	eng := sim.NewEngine()
	cpus := cpu.New(eng, params, cfg.Cores)
	k := kern.New(eng, cpus, params)
	clus := cluster.New(eng, params, clusterOSDs)
	arr := disk.NewArray(eng, "local-raid0", 4, params.DiskSeqBytesPerSec, params.DiskSeekTime, params.DiskStripeUnit)
	ls := kern.NewLocalStore(eng, arr)
	localMount := k.Mount(ls, kern.MountConfig{
		Name:     "ext4",
		MemLimit: localMemBytes,
		MaxDirty: localMemBytes / 2,
	})
	return &Testbed{
		Eng:        eng,
		Params:     params,
		CPU:        cpus,
		Kernel:     k,
		Cluster:    clus,
		LocalArray: arr,
		LocalFS:    localMount,
		LocalStore: ls,
		Overload:   cfg.Overload,
	}
}

// NewPool reserves a container pool: a cpuset of cores and a memory
// budget, with its own resource accounting.
func (tb *Testbed) NewPool(name string, mask cpu.Mask, memBytes int64) *Pool {
	p := &Pool{
		tb:        tb,
		Name:      name,
		Mask:      mask,
		Mem:       memBytes,
		Acct:      cpu.NewAccount(name),
		Admission: tb.admissionFor(name),
	}
	tb.pools = append(tb.pools, p)
	return p
}

// Pools returns the reserved pools.
func (tb *Testbed) Pools() []*Pool { return tb.pools }

// Stop terminates all background service threads (kernel flushers and
// every pool's user-level clients) so the engine can drain.
func (tb *Testbed) Stop() {
	tb.stopped = true
	tb.Kernel.Stop()
	for _, p := range tb.pools {
		p.Stop()
	}
}

// PoolMasks partitions the first 2*n cores into n pools of 2 cores, the
// paper's standard reservation for contention experiments.
func (tb *Testbed) PoolMasks(n int) []cpu.Mask {
	if 2*n > tb.CPU.NumCores() {
		panic(fmt.Sprintf("core: %d pools need %d cores, host has %d", n, 2*n, tb.CPU.NumCores()))
	}
	masks := make([]cpu.Mask, n)
	for i := range masks {
		masks[i] = cpu.MaskRange(2*i, 2*i+2)
	}
	return masks
}
