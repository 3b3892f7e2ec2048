// Package fusefs models the FUSE transport: every operation on a FUSE
// mount crosses from the application into the kernel, is queued to a
// user-level daemon (two context switches), pays extra data copies
// through the kernel, and splits large I/O at the FUSE request size.
//
// Stacking transports composes naturally: unionfs-fuse over ceph-fuse
// (configuration F/F) is a Transport whose inner filesystem issues its
// branch operations through a second Transport — which is exactly why
// that configuration shows 9-39x more context switches than Danaus in
// Fig 8b.
package fusefs

import (
	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Transport is a FUSE mount: a user-level daemon serving a filesystem
// through the kernel FUSE channel. It implements vfsapi.FileSystem.
type Transport struct {
	eng    *sim.Engine
	cpus   *cpu.CPU
	params *model.Params
	inner  vfsapi.FileSystem

	// daemonThreads is a pool of CPU threads the daemon side runs on
	// (pinned to the pool's cores like any process of the tenant).
	daemonThreads []*cpu.Thread
	next          int
	// slots gates concurrent requests by the daemon thread count: a
	// FUSE daemon with all threads busy queues further requests, which
	// is what collapses stacked-FUSE configurations when many cloned
	// containers share one ceph-fuse process.
	slots *sim.Resource

	// crashed marks a dead daemon process: requests on the FUSE channel
	// fail with vfsapi.ErrCrashed — the transport error every tenant
	// mounted through this daemon sees — until Restart.
	crashed bool
}

// Config configures the daemon side of a FUSE mount.
type Config struct {
	// Name for diagnostics.
	Name string
	// Acct is the account charged for daemon CPU (the pool's account).
	Acct *cpu.Account
	// Mask pins the daemon threads.
	Mask cpu.Mask
	// Threads is the daemon thread pool size (default 4).
	Threads int
}

// New creates a FUSE mount serving inner through a daemon.
func New(eng *sim.Engine, cpus *cpu.CPU, params *model.Params, inner vfsapi.FileSystem, cfg Config) *Transport {
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Acct == nil {
		cfg.Acct = cpu.NewAccount(cfg.Name + ".fused")
	}
	t := &Transport{
		eng: eng, cpus: cpus, params: params, inner: inner,
		slots: sim.NewResource(eng, cfg.Name+".daemon", cfg.Threads),
	}
	for i := 0; i < cfg.Threads; i++ {
		t.daemonThreads = append(t.daemonThreads, cpus.NewThread(cfg.Acct, cfg.Mask))
	}
	return t
}

// Inner returns the filesystem served by the daemon.
func (t *Transport) Inner() vfsapi.FileSystem { return t.inner }

// Crash kills the daemon process: every request on the FUSE channel —
// in flight past the syscall entry or issued later — fails with
// vfsapi.ErrCrashed until Restart. The blast radius is every tenant
// mounted through this daemon, which is the paper's argument against
// sharing one ceph-fuse process across containers.
func (t *Transport) Crash() { t.crashed = true }

// Restart brings a fresh daemon process up on the existing mount. The
// daemon itself is stateless here (its caches live in the inner client,
// which recovers separately), so restart is immediate.
func (t *Transport) Restart() { t.crashed = false }

// Crashed reports whether the daemon is dead.
func (t *Transport) Crashed() bool { return t.crashed }

// crossing performs one FUSE round trip: syscall entry, request
// queueing, switch to the daemon, daemon-side execution of fn, switch
// back, and syscall exit. payloadIn/payloadOut are the extra data
// copies through the kernel in each direction.
func (t *Transport) crossing(ctx vfsapi.Ctx, payloadIn, payloadOut int64, fn func(dctx vfsapi.Ctx) error) error {
	defer ctx.Span.Enter(obs.LayerFUSE).Exit()
	p := t.params
	if t.crashed {
		// The kernel aborts requests on a dead FUSE connection at the
		// syscall boundary (ENOTCONN in real life) — no daemon round
		// trip, but the aborted syscall still costs its kernel entry,
		// which keeps erroring loops moving in simulated time.
		ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, p.FUSERequestOverhead), ctx.T.ModeSwitchStep())
		return vfsapi.ErrCrashed
	}
	// Application enters the kernel and hands the request to FUSE. Each
	// run of charges is one Chain: a zero-length copy step only skips.
	ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(),
		cpu.Charge(cpu.Kernel, p.FUSERequestOverhead),
		cpu.Charge(cpu.Kernel, p.CopyTime(payloadIn)),
		ctx.T.ContextSwitchStep())

	// Daemon side: wait for a free daemon thread (the request sits in
	// the FUSE queue while all are busy), read the request, pay the
	// copy out of the kernel, and serve it at user level.
	t.slots.Acquire(ctx.P)
	defer t.slots.Release()
	if t.crashed {
		// The daemon died while the request sat in the FUSE queue.
		return vfsapi.ErrCrashed
	}
	dth := t.daemonThreads[t.next%len(t.daemonThreads)]
	t.next++
	dctx := vfsapi.Ctx{P: ctx.P, T: dth, Span: ctx.Span}
	// The daemon returns from read(2) on /dev/fuse and copies the
	// request in.
	dth.Chain(ctx.P, dth.ModeSwitchStep(), cpu.Charge(cpu.Kernel, p.CopyTime(payloadIn)))
	err := fn(dctx)
	// It copies the reply out and writes it, and the application
	// switches back in, copies the reply and returns: one chain across
	// both threads.
	dth.Chain(ctx.P, cpu.Charge(cpu.Kernel, p.CopyTime(payloadOut)), dth.ModeSwitchStep(),
		ctx.T.ContextSwitchStep(),
		cpu.Step{Kind: cpu.Kernel, D: p.CopyTime(payloadOut), Thread: ctx.T},
		ctx.T.ModeSwitchStep())
	return err
}

// Open crosses to the daemon and wraps the returned handle.
func (t *Transport) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	var h vfsapi.Handle
	err := t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		var err error
		h, err = t.inner.Open(dctx, path, flags)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &fuseHandle{t: t, inner: h}, nil
}

// Stat crosses to the daemon.
func (t *Transport) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	var info vfsapi.FileInfo
	err := t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		var err error
		info, err = t.inner.Stat(dctx, path)
		return err
	})
	return info, err
}

// Mkdir crosses to the daemon.
func (t *Transport) Mkdir(ctx vfsapi.Ctx, path string) error {
	return t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		return t.inner.Mkdir(dctx, path)
	})
}

// Readdir crosses to the daemon.
func (t *Transport) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	var ents []vfsapi.DirEntry
	err := t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		var err error
		ents, err = t.inner.Readdir(dctx, path)
		return err
	})
	return ents, err
}

// Unlink crosses to the daemon.
func (t *Transport) Unlink(ctx vfsapi.Ctx, path string) error {
	return t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		return t.inner.Unlink(dctx, path)
	})
}

// Rmdir crosses to the daemon.
func (t *Transport) Rmdir(ctx vfsapi.Ctx, path string) error {
	return t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		return t.inner.Rmdir(dctx, path)
	})
}

// Rename crosses to the daemon.
func (t *Transport) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	return t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		return t.inner.Rename(dctx, oldPath, newPath)
	})
}

type fuseHandle struct {
	t     *Transport
	inner vfsapi.Handle
}

func (h *fuseHandle) Path() string { return h.inner.Path() }
func (h *fuseHandle) Size() int64  { return h.inner.Size() }

// Read splits the request at the FUSE request size, one round trip per
// chunk, each paying the reply copy through the kernel.
func (h *fuseHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	var total int64
	for n > 0 {
		chunk := h.t.params.FUSEMaxWrite
		if n < chunk {
			chunk = n
		}
		var got int64
		err := h.t.crossing(ctx, 0, chunk, func(dctx vfsapi.Ctx) error {
			var err error
			got, err = h.inner.Read(dctx, off, chunk)
			return err
		})
		if err != nil {
			return total, err
		}
		total += got
		off += got
		n -= chunk
		if got < chunk {
			break // EOF
		}
	}
	return total, nil
}

// Write splits at the FUSE request size, one round trip per chunk.
func (h *fuseHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	var total int64
	for n > 0 {
		chunk := h.t.params.FUSEMaxWrite
		if n < chunk {
			chunk = n
		}
		var got int64
		err := h.t.crossing(ctx, chunk, 0, func(dctx vfsapi.Ctx) error {
			var err error
			got, err = h.inner.Write(dctx, off, chunk)
			return err
		})
		if err != nil {
			return total, err
		}
		total += got
		off += got
		n -= chunk
	}
	return total, nil
}

// Append forwards to chunked writes at the current end of file.
func (h *fuseHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	off := h.inner.Size()
	_, err := h.Write(ctx, off, n)
	return off, err
}

// Fsync crosses to the daemon.
func (h *fuseHandle) Fsync(ctx vfsapi.Ctx) error {
	return h.t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		return h.inner.Fsync(dctx)
	})
}

// Close crosses to the daemon.
func (h *fuseHandle) Close(ctx vfsapi.Ctx) error {
	return h.t.crossing(ctx, 0, 0, func(dctx vfsapi.Ctx) error {
		return h.inner.Close(dctx)
	})
}
