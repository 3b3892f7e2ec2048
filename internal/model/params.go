// Package model centralizes the cost-model constants of the simulation.
//
// Every duration or rate that calibrates the discrete-event model lives
// here, so that the relationship between a mechanism (a mode switch, a
// page-cache copy, a lock hold) and its cost is stated exactly once.
// The defaults are calibrated so the reproduced experiments match the
// *shape* of the paper's results (who wins, rough factors, crossovers)
// on the paper's testbed: a 64-core AMD Opteron 6378 client at 2.4 GHz
// with a 20 Gbps bonded NIC, against a Ceph cluster of 6 ramdisk OSDs
// and 1 MDS.
package model

import "time"

// Params holds every tunable of the cost model. Use Default for the
// calibrated configuration; tests override individual fields.
type Params struct {
	// --- Processor ---

	// Quantum is the scheduler time slice: a thread releasing a core
	// after each quantum gives round-robin sharing among contenders.
	Quantum time.Duration
	// ModeSwitchCost is the direct CPU cost of one user/kernel mode
	// switch (trap + return, TLB effects amortized in).
	ModeSwitchCost time.Duration
	// ContextSwitchCost is the CPU cost of switching between threads,
	// paid on each FUSE daemon handoff and on IPC service-thread
	// wakeups (both directions).
	ContextSwitchCost time.Duration
	// MemcpyBytesPerSec is single-core copy bandwidth. Every data
	// movement between caches, buffers and application memory is
	// charged at this rate.
	MemcpyBytesPerSec int64
	// ChecksumBytesPerSec is single-core CRC bandwidth charged by the
	// storage client on wire transfers.
	ChecksumBytesPerSec int64

	// --- Kernel (VFS, page cache, writeback) ---

	// VFSOpCost is fixed in-kernel CPU per VFS operation (path walk,
	// dispatch) beyond lock costs.
	VFSOpCost time.Duration
	// PageSize is the unit of page-cache accounting.
	PageSize int64
	// LRULockHoldPerPage is the hold time of the global page-cache LRU
	// lock charged per page inserted or reclaimed. High combined page
	// rates across tenants queue on this lock (Fig 1b).
	LRULockHoldPerPage time.Duration
	// IMutexHold is the hold time of a per-superblock inode mutex
	// charged per mutating VFS operation.
	IMutexHold time.Duration
	// WritebackLockHold is the hold time of the global writeback list
	// lock charged per dirtying operation and per flusher pass.
	WritebackLockHold time.Duration
	// WritebackInterval is the periodic flusher wakeup (Linux
	// dirty_writeback_centisecs = 5s in the paper's setup... the paper
	// keeps the defaults of 5s expire and 1s writeback).
	WritebackInterval time.Duration
	// DirtyExpire is the age beyond which dirty data is written out
	// regardless of volume.
	DirtyExpire time.Duration
	// FlusherBytesPerSec is per-flusher-thread CPU-limited writeback
	// preparation rate (page scanning + submission). The network adds
	// its own time on top.
	FlusherBytesPerSec int64
	// NumFlushers is the number of kernel writeback threads; they may
	// run on ANY activated core of the host — this is the core-stealing
	// mechanism of Fig 1a.
	NumFlushers int
	// DirtyThrottleCheck is how long a throttled writer sleeps before
	// re-checking the dirty threshold.
	DirtyThrottleCheck time.Duration

	// --- Network ---

	// ClientNICBytesPerSec is the client host's bonded NIC capacity in
	// each direction (20 Gbps = 2.5 GB/s).
	ClientNICBytesPerSec int64
	// ServerNICBytesPerSec is each server VM's NIC capacity per
	// direction (10 GbE).
	ServerNICBytesPerSec int64
	// NetLatency is one-way propagation+switching latency.
	NetLatency time.Duration
	// NetMTU is the transfer chunking unit for pipelining large
	// messages across links.
	NetMTU int64
	// NetCPUBytesPerSec is protocol-processing CPU rate: sending or
	// receiving B bytes costs B/NetCPUBytesPerSec of kernel CPU on the
	// caller's eligible cores.
	NetCPUBytesPerSec int64
	// NetOpCost is fixed per-message kernel CPU (syscall, interrupt).
	NetOpCost time.Duration

	// --- Local disks ---

	// DiskSeqBytesPerSec is sequential throughput of one local disk.
	DiskSeqBytesPerSec int64
	// DiskSeekTime is the positioning cost for a non-contiguous access.
	DiskSeekTime time.Duration
	// DiskStripeUnit is the RAID0 stripe unit across local disks.
	DiskStripeUnit int64

	// --- Ceph backend ---

	// ObjectSize is the striping unit of files across OSD objects.
	ObjectSize int64
	// OSDRamdiskBytesPerSec is each OSD's ramdisk throughput.
	OSDRamdiskBytesPerSec int64
	// OSDOpCost is fixed per-object-operation server CPU.
	OSDOpCost time.Duration
	// OSDJournalFactor multiplies writes for journaling (data+journal).
	OSDJournalFactor float64
	// MDSOpCost is per-metadata-operation cost at the MDS.
	MDSOpCost time.Duration

	// --- FUSE ---

	// FUSERequestOverhead is fixed kernel CPU per FUSE request
	// (request alloc, queueing) beyond switches and copies.
	FUSERequestOverhead time.Duration
	// FUSEMaxWrite caps the size of a single FUSE data request;
	// larger I/O splits into multiple kernel<->daemon round trips.
	FUSEMaxWrite int64

	// --- Danaus IPC (shared-memory queues) ---

	// IPCEnqueueCost is user-level CPU to post or fetch one request
	// descriptor in a shared-memory circular queue.
	IPCEnqueueCost time.Duration
	// IPCWakeupCost is the cost of waking an idle service thread
	// (futex-like), counted as one context switch on each side.
	IPCWakeupCost time.Duration
	// IPCPollWindow is how long a service thread keeps polling its
	// queue after the last request before sleeping; a request arriving
	// within the window avoids the wakeup context switches. Zero
	// disables polling (ablation: every request pays a wakeup).
	IPCPollWindow time.Duration
	// IPCScaleThreshold is the queue backlog beyond which the back
	// driver spawns an extra service thread.
	IPCScaleThreshold int

	// --- Ceph client (libcephfs-like and kernel) ---

	// ClientLockHold is the client_lock hold time per operation in the
	// user-level client (libcephfs's global lock), covering cache
	// lookup and metadata manipulation.
	ClientLockHold time.Duration
	// ClientLockCopyFraction is the fraction of each cache data copy
	// performed while still holding client_lock. This models the
	// coarse locking that caps Danaus cached-read concurrency (§6.3.2).
	ClientLockCopyFraction float64
	// ClientOpCost is fixed user-level CPU per client operation
	// (request marshalling, cache bookkeeping).
	ClientOpCost time.Duration
	// KernelClientOpCost is fixed in-kernel CPU per kernel-Ceph-client
	// operation; the mature kernel client is leaner per-op.
	KernelClientOpCost time.Duration

	// --- Client fault tolerance (retry/failover against backend faults) ---

	// ClientOpDeadline bounds the total time the user-level client
	// spends retrying one data operation before giving up with an I/O
	// error. The kernel client has no such bound (it blocks, like the
	// real CephFS kernel mount) but counts when the deadline would have
	// expired.
	ClientOpDeadline time.Duration
	// ClientRetryBase is the first retry backoff; subsequent retries
	// double it deterministically up to ClientRetryCap.
	ClientRetryBase time.Duration
	// ClientRetryCap caps the exponential retry backoff.
	ClientRetryCap time.Duration
	// ClientMaxRetries bounds retry attempts per operation in the
	// user-level client.
	ClientMaxRetries int
	// BreakerFailureThreshold is the number of consecutive transient
	// failures that trips the per-client circuit breaker from closed to
	// open (when the breaker is enabled; see cluster.NewRetrier).
	BreakerFailureThreshold int
	// BreakerOpenBase is the first open interval after a trip;
	// successive trips double it deterministically up to BreakerOpenCap.
	BreakerOpenBase time.Duration
	// BreakerOpenCap caps the exponential open interval.
	BreakerOpenCap time.Duration
	// BreakerRecoveryTarget is the number of half-open probe successes
	// needed to close the breaker again (slow start doubles the probe
	// budget per success on the way there).
	BreakerRecoveryTarget int

	// --- Union filesystems ---

	// UnionLookupCost is per-branch lookup CPU in a union filesystem.
	UnionLookupCost time.Duration
	// CopyUpChunk is the chunk size used for file-level copy-up.
	CopyUpChunk int64

	// --- Container / application startup (Fig 8) ---

	// ExecBinaryBytes is the size read via the legacy path when a
	// container starts its initial command.
	ExecBinaryBytes int64
	// MmapLibraryBytes is the total dynamic-library bytes mapped at
	// startup via the legacy path.
	MmapLibraryBytes int64
	// StartupAppFileBytes is application file preparation traffic
	// through the default (user-level) path.
	StartupAppFileBytes int64
	// StartupOpCount is the number of small metadata/config operations
	// a starting container issues.
	StartupOpCount int
}

// Default returns the calibrated parameter set. See EXPERIMENTS.md for
// the calibration record against the paper's figures.
func Default() *Params {
	return &Params{
		Quantum:             time.Millisecond,
		ModeSwitchCost:      300 * time.Nanosecond,
		ContextSwitchCost:   2500 * time.Nanosecond,
		MemcpyBytesPerSec:   5 << 30, // 5 GiB/s per core
		ChecksumBytesPerSec: 10 << 30,

		VFSOpCost:          600 * time.Nanosecond,
		PageSize:           4096,
		LRULockHoldPerPage: 1000 * time.Nanosecond,
		IMutexHold:         1200 * time.Nanosecond,
		WritebackLockHold:  400 * time.Nanosecond,
		WritebackInterval:  time.Second,
		DirtyExpire:        5 * time.Second,
		FlusherBytesPerSec: 400 << 20, // flush preparation is CPU-heavy per thread
		NumFlushers:        4,
		DirtyThrottleCheck: 10 * time.Millisecond,

		ClientNICBytesPerSec: 2500 << 20, // ~2.5 GB/s per direction (20 Gbps bonded)
		ServerNICBytesPerSec: 1250 << 20, // 10 GbE per VM
		NetLatency:           50 * time.Microsecond,
		NetMTU:               64 << 10,
		NetCPUBytesPerSec:    2 << 30,
		NetOpCost:            2 * time.Microsecond,

		DiskSeqBytesPerSec: 160 << 20, // 160 MB/s per local disk
		DiskSeekTime:       4 * time.Millisecond,
		DiskStripeUnit:     256 << 10,

		ObjectSize:            4 << 20,
		OSDRamdiskBytesPerSec: 2 << 30,
		OSDOpCost:             15 * time.Microsecond,
		OSDJournalFactor:      1.5,
		MDSOpCost:             25 * time.Microsecond,

		FUSERequestOverhead: 1500 * time.Nanosecond,
		FUSEMaxWrite:        128 << 10,

		IPCEnqueueCost:    250 * time.Nanosecond,
		IPCWakeupCost:     1500 * time.Nanosecond,
		IPCPollWindow:     200 * time.Microsecond,
		IPCScaleThreshold: 64,

		ClientLockHold:         2 * time.Microsecond,
		ClientLockCopyFraction: 0.8,
		ClientOpCost:           1500 * time.Nanosecond,
		KernelClientOpCost:     900 * time.Nanosecond,

		ClientOpDeadline: time.Second,
		ClientRetryBase:  200 * time.Microsecond,
		ClientRetryCap:   20 * time.Millisecond,
		ClientMaxRetries: 64,

		BreakerFailureThreshold: 5,
		BreakerOpenBase:         5 * time.Millisecond,
		BreakerOpenCap:          160 * time.Millisecond,
		BreakerRecoveryTarget:   4,

		UnionLookupCost: 800 * time.Nanosecond,
		CopyUpChunk:     1 << 20,

		ExecBinaryBytes:     1 << 20,
		MmapLibraryBytes:    6 << 20,
		StartupAppFileBytes: 512 << 10,
		StartupOpCount:      40,
	}
}

// CopyTime returns the single-core CPU time to copy n bytes.
func (p *Params) CopyTime(n int64) time.Duration {
	return rateTime(n, p.MemcpyBytesPerSec)
}

// Pages returns the number of pages covering n bytes.
func (p *Params) Pages(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (n + p.PageSize - 1) / p.PageSize
}

// rateTime converts n bytes at rate bytes/sec into a duration.
func rateTime(n, rate int64) time.Duration {
	if n <= 0 || rate <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(rate) * float64(time.Second))
}

// RateTime is the exported form of rateTime for other packages sharing
// the byte-rate convention.
func RateTime(n, rate int64) time.Duration { return rateTime(n, rate) }
