package kern

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vfsapi"
)

// The tests below pin where the kernel's write-back differs from the
// user-level client's over the shared cacherun.Writeback; cephclient's
// writeback_test.go pins the other side of each.

// TestKernFlusherMarksItsFile: a kernel flusher marks the file it
// stores Flushing, so a second flusher of the mount takes another file:
// a small file dirtied after a large one is popped while the large one
// still has dirty data.
func TestKernFlusherMarksItsFile(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.store.writeDelay = 10 * time.Millisecond
	r.run(t, func(ctx vfsapi.Ctx) {
		ha, _ := r.mount.Open(ctx, "/a", vfsapi.CREATE|vfsapi.WRONLY)
		hb, _ := r.mount.Open(ctx, "/b", vfsapi.CREATE|vfsapi.WRONLY)
		ha.Write(ctx, 0, 4<<20)
		hb.Write(ctx, 0, 64<<10)
		a, b := ha.(*pagedHandle).f, hb.(*pagedHandle).f
		overtook := false
		for i := 0; i < 10000 && (a.Dirty.Len() > 0 || b.Dirty.Len() > 0); i++ {
			ctx.P.Sleep(time.Millisecond)
			overtook = overtook || b.Dirty.Len() == 0 && a.Dirty.Len() > 0
		}
		if !overtook {
			t.Fatal("the second file waited for the first to be popped: no flusher marked its file Flushing")
		}
		ha.Close(ctx)
		hb.Close(ctx)
	})
}

// TestKernDrainUpdatesNoFlushRate: an fsync's drain leaves the pacing
// EWMA alone; only a flusher's batch feeds it.
func TestKernDrainUpdatesNoFlushRate(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 3<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		if m := r.mount; m.lastFlushDone != 0 || m.flushRate != 0 {
			t.Fatalf("fsync fed the flush rate: last batch at %v, rate %v", m.lastFlushDone, m.flushRate)
		}
		h.Write(ctx, 0, 1<<20)
		ctx.P.Sleep(7 * time.Second)
		if r.mount.lastFlushDone == 0 {
			t.Fatal("the flusher's batch did not feed the flush rate")
		}
		h.Close(ctx)
	})
}

// TestKernWritebackSpanWaits: an fsync takes wb_lock untraced — its
// span reports no wb_lock wait — while the flusher reports its wb_lock
// and i_mutex waits to its writeback span.
func TestKernWritebackSpanWaits(t *testing.T) {
	r := newRig(t, MountConfig{Tenant: "pool"})
	rec := obs.New(obs.Config{Clock: r.eng.Now})
	r.kern.SetRecorder(rec)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		sp := rec.StartSpan(ctx.P.ID(), "fsyncer", "fsync")
		ctx.Span = sp
		if err := h.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		sp.End(0, nil)
		ctx.Span = nil
		h.Write(ctx, 0, 1<<20)
		ctx.P.Sleep(7 * time.Second)
		h.Close(ctx)
	})
	reg := rec.Registry()
	for name := range reg.Tenant("fsyncer").Locks() {
		t.Fatalf("fsync reported a wait on %q, want none", name)
	}
	for _, lock := range []string{"wb_lock", "i_mutex"} {
		if n := reg.Tenant("pool").Lock(lock).Count; n != 1 {
			t.Fatalf("flusher reported %d %s waits, want 1", n, lock)
		}
	}
}
