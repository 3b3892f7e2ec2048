package cephclient

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// The tests below pin where the user-level client's write-back differs
// from the kernel's over the shared cacherun.Writeback; kern's
// writeback_test.go pins the other side of each.

// poll calls done after every millisecond of simulated time until it
// reports true, for at most 10 s, and returns its last report.
func poll(ctx vfsapi.Ctx, done func() bool) bool {
	for i := 0; i < 10000 && !done(); i++ {
		ctx.P.Sleep(time.Millisecond)
	}
	return done()
}

// TestFlushersShareAFile: the user-level flushers do not mark the file
// they store Flushing, so two of one client's flushers work the same
// file: a small file dirtied after a large one is popped only once the
// large one has no dirty data left.
func TestFlushersShareAFile(t *testing.T) {
	r := newRig(t, Config{Flushers: 2})
	r.run(t, func(ctx vfsapi.Ctx) {
		ha, _ := r.client.Open(ctx, "/a", vfsapi.CREATE|vfsapi.WRONLY)
		hb, _ := r.client.Open(ctx, "/b", vfsapi.CREATE|vfsapi.WRONLY)
		ha.Write(ctx, 0, 4<<20)
		hb.Write(ctx, 0, 64<<10)
		a, b := ha.(*chandle).f, hb.(*chandle).f
		overtook := false
		if !poll(ctx, func() bool {
			overtook = overtook || b.Dirty.Len() == 0 && a.Dirty.Len() > 0
			return a.Dirty.Len() == 0 && b.Dirty.Len() == 0
		}) {
			t.Fatal("the flushers left dirty data")
		}
		if overtook {
			t.Fatal("the second file was popped while the first had dirty data: a flusher marked its file Flushing")
		}
		ha.Close(ctx)
		hb.Close(ctx)
	})
}

// TestFlusherFailedPersist: a client stopped while a flusher's persist
// retries a down OSD ends the batch at the failing extent. The whole
// batch leaves the dirty total, FlushedBytes counts the bytes sent up
// to and including the failed extent, and no size is pushed.
func TestFlusherFailedPersist(t *testing.T) {
	r := newRig(t, Config{MaxDirty: 3 << 20}) // due at 1.5 MiB
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		ino := h.(*chandle).f.Ino
		// Three extents in objects on two OSDs, the middle one down,
		// make the 1 MiB batch; a fourth, past them, stays dirty.
		obj := r.client.params.ObjectSize
		first, down := r.clus.PlacementOf(ino, 0), -1
		var mid, last int64
		for k := int64(1); last == 0; k++ {
			switch p := r.clus.PlacementOf(ino, k); {
			case mid == 0 && p != first:
				mid, down = k, p
			case mid != 0 && p != down:
				last = k
			}
		}
		r.clus.OSDs()[down].Crash()
		h.Write(ctx, 32*obj, 512<<10)
		h.Write(ctx, 0, 256<<10)
		h.Write(ctx, mid*obj, 256<<10)
		h.Write(ctx, last*obj, 512<<10) // the dirty total reaches 1.5 MiB: the flusher wakes
		if !poll(ctx, func() bool { return r.client.FaultStats().Retries > 0 }) {
			t.Fatal("the persist never retried")
		}
		r.client.Stop()
		poll(ctx, func() bool { return r.client.DirtyBytes() <= 512<<10 })
		if got := r.client.DirtyBytes(); got != 512<<10 {
			t.Fatalf("dirty = %d after the failed batch, want the 512 KiB left behind it", got)
		}
		if got := r.client.Stats().FlushedBytes; got != 512<<10 {
			t.Fatalf("FlushedBytes = %d, want the 512 KiB sent up to the failed extent", got)
		}
		var osd uint64
		for _, o := range r.clus.OSDs() {
			osd += o.BytesWritten()
		}
		if osd != 256<<10 {
			t.Fatalf("OSDs hold %d bytes, want only the first extent's 256 KiB", osd)
		}
		if rep, err := r.clus.Meta(ctx, cluster.MetaQuery{Op: cluster.MetaLookup, Path: "/f"}); err != nil || rep.Info.Size != 0 {
			t.Fatalf("MDS size = %d (%v), want no push", rep.Info.Size, err)
		}
	})
}

// TestDrainCountsNoFlushedBytes: an fsync's drain adds nothing to
// FlushedBytes; only a flusher's batch does.
func TestDrainCountsNoFlushedBytes(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 3<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		if got := r.client.Stats().FlushedBytes; got != 0 {
			t.Fatalf("fsync counted %d FlushedBytes", got)
		}
		h.Write(ctx, 0, 1<<20)
		ctx.P.Sleep(7 * time.Second)
		if got := r.client.Stats().FlushedBytes; got != 1<<20 {
			t.Fatalf("the flusher counted %d FlushedBytes, want 1 MiB", got)
		}
		h.Close(ctx)
	})
}

// TestWritebackSpanWaits: the user-level client reports its client_lock
// waits to the span of an fsync and of a flusher's pass alike.
func TestWritebackSpanWaits(t *testing.T) {
	var eng *sim.Engine
	rec := obs.New(obs.Config{Clock: func() time.Duration { return eng.Now() }})
	r := newRig(t, Config{Tenant: "pool", Obs: rec})
	eng = r.eng
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
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
	if n := reg.Tenant("fsyncer").Lock("client_lock").Count; n != 1 {
		t.Fatalf("fsync reported %d client_lock waits, want its drain's one", n)
	}
	if n := reg.Tenant("pool").Lock("client_lock").Count; n != 1 {
		t.Fatalf("flusher reported %d client_lock waits, want its batch's one", n)
	}
}
