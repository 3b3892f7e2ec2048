package cephclient

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// TestCrashTerminatesBackgroundProcs: a crash mid-writeback must kill
// the client's service threads (flusher, IPC pollers) so the engine
// drains — the fault stays contained to this client.
func TestCrashTerminatesBackgroundProcs(t *testing.T) {
	r := newRig(t, Config{})
	r.eng.Go("test", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}
		h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := h.Write(ctx, 0, 8<<20); err != nil {
			t.Errorf("write: %v", err)
		}
		p.Sleep(time.Millisecond) // let the flusher start working
		r.client.Crash()
	})
	r.eng.Run()
	if n := r.eng.LiveProcs(); n != 0 {
		t.Fatalf("crash left %d live procs; background services must terminate", n)
	}
}

// dropColdCache evicts a file's cached data so the next read goes to
// the backend.
func dropColdCache(r *rig, ctx vfsapi.Ctx, ino uint64) {
	r.client.lockedMeta(ctx, func() {
		if f, ok := r.client.cache.Lookup(ino); ok {
			r.client.dropCache(f)
		}
	})
}

// TestReadFailsOverToReplica: with the primary down and replication 2,
// a backend read must succeed via the ring replica and count the
// failover.
func TestReadFailsOverToReplica(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.SetReplication(2)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		h.Write(ctx, 0, 1<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		h.Close(ctx)

		ino := h.(*chandle).f.Ino
		dropColdCache(r, ctx, ino)
		r.clus.OSDs()[r.clus.PlacementOf(ino, 0)].Crash()

		rh, err := r.client.Open(ctx, "/f", vfsapi.RDONLY)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rh.Close(ctx)
		if _, err := rh.Read(ctx, 0, 256<<10); err != nil {
			t.Fatalf("read with down primary: %v", err)
		}
		fs := r.client.FaultStats()
		if fs.Failovers == 0 {
			t.Fatalf("no failover counted: %+v", fs)
		}
		if fs.Retries == 0 {
			t.Fatalf("no retry counted: %+v", fs)
		}
	})
}

// TestUnreplicatedReadErrsAtDeadline: with nowhere to fail over, the
// bounded retry loop must give up with an I/O error instead of hanging
// the caller forever.
func TestUnreplicatedReadErrsAtDeadline(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		h.Write(ctx, 0, 1<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatalf("fsync: %v", err)
		}
		h.Close(ctx)

		ino := h.(*chandle).f.Ino
		dropColdCache(r, ctx, ino)
		r.clus.OSDs()[r.clus.PlacementOf(ino, 0)].Crash()

		rh, err := r.client.Open(ctx, "/f", vfsapi.RDONLY)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer rh.Close(ctx)
		start := ctx.P.Now()
		_, rerr := rh.Read(ctx, 0, 256<<10)
		if !errors.Is(rerr, vfsapi.ErrIO) {
			t.Fatalf("read with dead unreplicated primary: err=%v, want ErrIO", rerr)
		}
		if waited := ctx.P.Now() - start; waited > 2*r.client.params.ClientOpDeadline {
			t.Fatalf("read held the caller %v, deadline is %v", waited, r.client.params.ClientOpDeadline)
		}
		fs := r.client.FaultStats()
		if fs.DeadlineMisses == 0 {
			t.Fatalf("no deadline miss counted: %+v", fs)
		}
		// Restart so the ErrOSDDown path doesn't leak into teardown.
		r.clus.OSDs()[r.clus.PlacementOf(ino, 0)].Restart()
	})
}

// TestWriteRetriesAcrossRestart: the unbounded write path must park on
// backoff during an unreplicated outage and complete once the OSD
// restarts, losing nothing.
func TestWriteRetriesAcrossRestart(t *testing.T) {
	r := newRig(t, Config{})
	var restartAt time.Duration
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		ino := h.(*chandle).f.Ino
		osd := r.clus.OSDs()[r.clus.PlacementOf(ino, 0)]
		osd.Crash()
		r.eng.After(300*time.Millisecond, func() { osd.Restart() })
		restartAt = r.eng.Now() + 300*time.Millisecond

		h.Write(ctx, 0, 1<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatalf("fsync across outage: %v", err)
		}
		if now := ctx.P.Now(); now < restartAt {
			t.Fatalf("fsync returned at %v, before the restart at %v", now, restartAt)
		}
		h.Close(ctx)
		fs := r.client.FaultStats()
		if fs.Retries == 0 || fs.TimeDegraded == 0 {
			t.Fatalf("no retry/degraded time counted: %+v", fs)
		}
		if got := r.clus.StoredSize(ino); got != 1<<20 {
			t.Fatalf("StoredSize = %d after recovery, want %d", got, 1<<20)
		}
	})
}
