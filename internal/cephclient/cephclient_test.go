package cephclient

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

type rig struct {
	eng    *sim.Engine
	cpus   *cpu.CPU
	clus   *cluster.Cluster
	client *Client
	acct   *cpu.Account
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return newRigWith(t, model.Default(), cfg)
}

// newRigWith is newRig over caller-tuned params.
func newRigWith(t *testing.T, params *model.Params, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cpus := cpu.New(eng, params, 4)
	clus := cluster.New(eng, params, 6)
	if cfg.Name == "" {
		cfg.Name = "client"
	}
	acct := cpu.NewAccount("pool")
	if cfg.Acct == nil {
		cfg.Acct = acct
	}
	cl := New(eng, cpus, params, clus, cfg)
	return &rig{eng: eng, cpus: cpus, clus: clus, client: cl, acct: acct}
}

func (r *rig) run(t *testing.T, fn func(ctx vfsapi.Ctx)) {
	t.Helper()
	r.eng.Go("test", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}
		fn(ctx)
		r.client.Stop()
	})
	r.eng.Run()
	if r.eng.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", r.eng.LiveProcs())
	}
}

func TestCreateWriteFlushToCluster(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ctx, 0, 2<<20)
		// Async: nothing on OSDs yet.
		var osd uint64
		for _, o := range r.clus.OSDs() {
			osd += o.BytesWritten()
		}
		if osd != 0 {
			t.Fatalf("write reached OSDs synchronously: %d", osd)
		}
		ctx.P.Sleep(7 * time.Second)
		osd = 0
		for _, o := range r.clus.OSDs() {
			osd += o.BytesWritten()
		}
		if osd != 2<<20 {
			t.Fatalf("flushed %d to OSDs, want 2MB", osd)
		}
		h.Close(ctx)
		// Size visible at the MDS after flush.
		info, _, err := r.clus.MetaLookup(ctx, "/f")
		if err != nil || info.Size != 2<<20 {
			t.Fatalf("MDS size = %d err=%v", info.Size, err)
		}
	})
}

func TestCachedReadAvoidsCluster(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.Provision("/data", 4<<20)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/data", vfsapi.RDONLY)
		h.Read(ctx, 0, 4<<20)
		var before uint64
		for _, o := range r.clus.OSDs() {
			before += o.BytesRead()
		}
		if before != 4<<20 {
			t.Fatalf("miss read %d from OSDs", before)
		}
		h.Read(ctx, 0, 4<<20)
		var after uint64
		for _, o := range r.clus.OSDs() {
			after += o.BytesRead()
		}
		if after != before {
			t.Fatal("cached read still hit OSDs")
		}
		h.Close(ctx)
	})
}

func TestClientLockSerializesCachedReads(t *testing.T) {
	// Two threads reading cached data on 4 idle cores: client_lock must
	// show contention — the §6.3.2 Seqread limitation.
	r := newRig(t, Config{})
	r.clus.Provision("/data", 8<<20)
	var warmed bool
	for i := 0; i < 4; i++ {
		r.eng.Go("reader", func(p *sim.Proc) {
			ctx := vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}
			h, _ := r.client.Open(ctx, "/data", vfsapi.RDONLY)
			if !warmed {
				warmed = true
				h.Read(ctx, 0, 8<<20)
			}
			for i := 0; i < 50; i++ {
				h.Read(ctx, 0, 1<<20)
			}
			h.Close(ctx)
		})
	}
	r.eng.RunUntil(30 * time.Second)
	r.client.Stop()
	r.eng.Run()
	s := r.client.ClientLock().Stats()
	if s.Contended == 0 || s.TotalWait == 0 {
		t.Fatalf("no client_lock contention recorded: %+v", s)
	}
}

func TestDirtyThrottle(t *testing.T) {
	r := newRig(t, Config{CacheLimit: 8 << 20, MaxDirty: 2 << 20})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 16; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
	})
	if r.acct.IOWait() == 0 {
		t.Fatal("no I/O wait accumulated above dirty limit")
	}
}

func TestCacheLimitEviction(t *testing.T) {
	r := newRig(t, Config{CacheLimit: 4 << 20})
	r.clus.Provision("/big", 16<<20)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/big", vfsapi.RDONLY)
		for off := int64(0); off < 16<<20; off += 1 << 20 {
			h.Read(ctx, off, 1<<20)
		}
		if cur := r.client.Meter().Current(); cur > 4<<20 {
			t.Fatalf("cache %d over limit", cur)
		}
		h.Close(ctx)
	})
}

func TestAttrCacheAvoidsMDS(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.Provision("/f", 100)
	r.run(t, func(ctx vfsapi.Ctx) {
		r.client.Stat(ctx, "/f")
		before := r.clus.MDSOps()
		r.client.Stat(ctx, "/f")
		r.client.Stat(ctx, "/f")
		if r.clus.MDSOps() != before {
			t.Fatal("repeated stats hit the MDS")
		}
	})
}

func TestUnlinkDiscardsDirty(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/tmp", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		h.Close(ctx)
		if err := r.client.Unlink(ctx, "/tmp"); err != nil {
			t.Fatal(err)
		}
		ctx.P.Sleep(7 * time.Second)
		var osd uint64
		for _, o := range r.clus.OSDs() {
			osd += o.BytesWritten()
		}
		if osd != 0 {
			t.Fatalf("unlinked dirty data flushed: %d", osd)
		}
		if r.client.DirtyBytes() != 0 || r.client.Meter().Current() != 0 {
			t.Fatal("state not dropped on unlink")
		}
	})
}

func TestFsyncSynchronous(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		var osd uint64
		for _, o := range r.clus.OSDs() {
			osd += o.BytesWritten()
		}
		if osd != 1<<20 {
			t.Fatalf("fsync flushed %d", osd)
		}
		h.Close(ctx)
	})
}

func TestDirectoryOps(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		if err := r.client.Mkdir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		h, _ := r.client.Open(ctx, "/d/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Close(ctx)
		ents, err := r.client.Readdir(ctx, "/d")
		if err != nil || len(ents) != 1 || ents[0].Name != "f" {
			t.Fatalf("readdir: %v %v", ents, err)
		}
		if err := r.client.Rename(ctx, "/d/f", "/d/g"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Stat(ctx, "/d/g"); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Unlink(ctx, "/d/g"); err != nil {
			t.Fatal(err)
		}
		if err := r.client.Rmdir(ctx, "/d"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.client.Stat(ctx, "/d"); !errors.Is(err, vfsapi.ErrNotExist) {
			t.Fatalf("stat removed: %v", err)
		}
	})
}

func TestFlusherThreadsStayOnPoolCores(t *testing.T) {
	// Client pinned to cores {0,1}: no client activity may appear on
	// cores {2,3} even under flush load — the Danaus isolation property.
	r := newRig(t, Config{Mask: cpu.MaskOf(0, 1), MaxDirty: 1 << 20, CacheLimit: 64 << 20})
	r.eng.Go("writer", func(p *sim.Proc) {
		th := r.cpus.NewThread(r.acct, cpu.MaskOf(0, 1))
		ctx := vfsapi.Ctx{P: p, T: th}
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 32; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
		r.client.Stop()
	})
	r.eng.Run()
	util := r.cpus.UtilSnapshot()
	if util[2] != 0 || util[3] != 0 {
		t.Fatalf("client leaked onto foreign cores: %v", util)
	}
}

func TestTruncate(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.Provision("/t", 1<<20)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.client.Open(ctx, "/t", vfsapi.WRONLY|vfsapi.TRUNC)
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() != 0 {
			t.Fatalf("size after trunc = %d", h.Size())
		}
		h.Close(ctx)
		info, _ := r.client.Stat(ctx, "/t")
		if info.Size != 0 {
			t.Fatalf("stat after trunc = %d", info.Size)
		}
	})
}

func TestCrossClientConsistencyViaCaps(t *testing.T) {
	// §3.4: the consistency policy propagates writes to other backend
	// clients. Client A buffers a write; when client B opens the same
	// file, the MDS revokes A's write capability, A flushes, and B sees
	// the full data — before A ever reached its writeback interval.
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 4)
	clus := cluster.New(eng, params, 6)
	a := New(eng, cpus, params, clus, Config{Name: "A"})
	b := New(eng, cpus, params, clus, Config{Name: "B"})
	acct := cpu.NewAccount("t")
	eng.Go("t", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(acct, 0)}
		ha, err := a.Open(ctx, "/shared", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Error(err)
			return
		}
		ha.Write(ctx, 0, 3<<20) // dirty in A's cache only
		if a.DirtyBytes() == 0 {
			t.Error("write should be buffered in A")
		}

		hb, err := b.Open(ctx, "/shared", vfsapi.RDONLY)
		if err != nil {
			t.Errorf("B open: %v", err)
			return
		}
		if a.DirtyBytes() != 0 {
			t.Errorf("A still dirty after B's conflicting open: %d", a.DirtyBytes())
		}
		if got, _ := hb.Read(ctx, 0, 10<<20); got != 3<<20 {
			t.Errorf("B read %d, want full 3MB", got)
		}
		hb.Close(ctx)
		ha.Close(ctx)
		a.Stop()
		b.Stop()
	})
	eng.Run()
}

func TestSharedReadCapsCoexist(t *testing.T) {
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 4)
	clus := cluster.New(eng, params, 6)
	clus.Provision("/ro", 1<<20)
	a := New(eng, cpus, params, clus, Config{Name: "A"})
	b := New(eng, cpus, params, clus, Config{Name: "B"})
	acct := cpu.NewAccount("t")
	eng.Go("t", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(acct, 0)}
		ha, _ := a.Open(ctx, "/ro", vfsapi.RDONLY)
		ha.Read(ctx, 0, 1<<20)
		cachedA := a.Meter().Current()
		hb, _ := b.Open(ctx, "/ro", vfsapi.RDONLY)
		hb.Read(ctx, 0, 1<<20)
		// Two readers coexist: A's cache must survive B's open.
		if a.Meter().Current() != cachedA {
			t.Errorf("A's cache dropped by a concurrent reader: %d -> %d", cachedA, a.Meter().Current())
		}
		ha.Close(ctx)
		hb.Close(ctx)
		a.Stop()
		b.Stop()
	})
	eng.Run()
}

func TestClientReadaheadOnSequentialStreams(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.Provision("/seq", 8<<20)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/seq", vfsapi.RDONLY)
		h.Read(ctx, 0, 64<<10)
		h.Read(ctx, 64<<10, 64<<10)
		var fetched uint64
		for _, o := range r.clus.OSDs() {
			fetched += o.BytesRead()
		}
		if fetched <= 128<<10 {
			t.Fatalf("no readahead: fetched %d", fetched)
		}
		h.Close(ctx)
	})
}

func TestCacheStats(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.Provision("/s", 4<<20)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/s", vfsapi.RDONLY)
		h.Read(ctx, 0, 4<<20) // cold
		h.Read(ctx, 0, 4<<20) // hot
		h.Close(ctx)
		s := r.client.Stats()
		if s.ReadBytes != 8<<20 {
			t.Fatalf("read bytes = %d", s.ReadBytes)
		}
		// The cold pass may prefetch slightly ahead; misses stay within
		// one readahead window of the file size.
		if s.MissBytes < 4<<20 || s.MissBytes > 4<<20+512<<10 {
			t.Fatalf("miss bytes = %d", s.MissBytes)
		}
		if hr := s.HitRatio(); hr < 0.4 || hr > 0.6 {
			t.Fatalf("hit ratio = %.2f, want ~0.5", hr)
		}
		hw, _ := r.client.Open(ctx, "/w", vfsapi.CREATE|vfsapi.WRONLY)
		hw.Write(ctx, 0, 1<<20)
		hw.Fsync(ctx)
		hw.Close(ctx)
		if got := r.client.Stats().WriteBytes; got != 1<<20 {
			t.Fatalf("write bytes = %d", got)
		}
	})
}

func TestCrashedClientRejectsOps(t *testing.T) {
	r := newRig(t, Config{})
	r.clus.Provision("/f", 1<<20)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.client.Open(ctx, "/f", vfsapi.RDONLY)
		r.client.Crash()
		if !r.client.Crashed() {
			t.Fatal("Crashed() false after Crash")
		}
		if _, err := r.client.Open(ctx, "/f", vfsapi.RDONLY); !errors.Is(err, ErrCrashed) {
			t.Fatalf("open after crash: %v", err)
		}
		if _, err := r.client.Stat(ctx, "/f"); !errors.Is(err, ErrCrashed) {
			t.Fatalf("stat after crash: %v", err)
		}
		if _, err := h.Read(ctx, 0, 100); !errors.Is(err, ErrCrashed) {
			t.Fatalf("read after crash: %v", err)
		}
		if _, err := h.Write(ctx, 0, 100); !errors.Is(err, ErrCrashed) {
			t.Fatalf("write after crash: %v", err)
		}
		if r.client.Meter().Current() != 0 || r.client.DirtyBytes() != 0 {
			t.Fatal("crash did not drop cached state")
		}
	})
}

func TestClientRepin(t *testing.T) {
	r := newRig(t, Config{Mask: cpu.MaskOf(0, 1), MaxDirty: 1 << 20, CacheLimit: 64 << 20})
	r.eng.Go("writer", func(p *sim.Proc) {
		th := r.cpus.NewThread(r.acct, cpu.MaskOf(0, 1))
		ctx := vfsapi.Ctx{P: p, T: th}
		h, _ := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 8; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		before := r.cpus.UtilSnapshot()
		r.client.Repin(cpu.MaskOf(2, 3))
		th.SetAffinity(cpu.MaskOf(2, 3))
		for i := int64(8); i < 16; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
		ctx.P.Sleep(100 * 1e6) // let flushers drain on the new cores
		after := r.cpus.UtilSnapshot()
		if after[2] == before[2] && after[3] == before[3] {
			t.Error("no flusher work on the new cores after repin")
		}
		r.client.Stop()
	})
	r.eng.Run()
}

// TestDirtyAuditAcrossLifecycle recomputes the dirty accounting after
// every kind of step that moves it: the per-file dirty sum must equal
// the counter, and the dirty list must be empty exactly when the
// counter is zero.
// auditDirty checks c's dirty accounting after step: the per-file sum
// equals the counter, the dirty list is empty exactly when the counter
// is zero, and the counter reads want.
func auditDirty(t *testing.T, c *Client, step string, want int64) {
	t.Helper()
	sum, listed, counter := c.cache.DirtyAudit()
	if sum != counter || (listed == 0) != (counter == 0) || counter != want {
		t.Errorf("%s: per-file dirty sum %d, %d files listed, counter %d (want %d)", step, sum, listed, counter, want)
	}
}

func TestDirtyAuditAcrossLifecycle(t *testing.T) {
	r := newRig(t, Config{})
	other := New(r.eng, r.cpus, model.Default(), r.clus, Config{Name: "other"})
	audit := func(step string, want int64) { t.Helper(); auditDirty(t, r.client, step, want) }
	r.run(t, func(ctx vfsapi.Ctx) {
		defer other.Stop()
		open := func(path string, flags vfsapi.OpenFlag) vfsapi.Handle {
			h, err := r.client.Open(ctx, path, flags)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			return h
		}
		rw := vfsapi.CREATE | vfsapi.WRONLY
		a := open("/a", rw)
		a.Write(ctx, 0, 4<<20)
		audit("write", 4<<20)
		a.Write(ctx, 1<<20, 2<<20)
		a.Write(ctx, 3<<20, 2<<20)
		audit("overwrite", 5<<20)

		b := open("/b", rw)
		b.Write(ctx, 0, 2<<20)
		b.Close(ctx)
		open("/b", vfsapi.WRONLY|vfsapi.TRUNC).Close(ctx)
		audit("truncate", 5<<20)

		c := open("/c", rw)
		c.Write(ctx, 0, 1<<20)
		c.Close(ctx)
		if err := r.client.Unlink(ctx, "/c"); err != nil {
			t.Fatal(err)
		}
		audit("unlink", 5<<20)
		g := open("/g", rw)
		if err := r.client.Unlink(ctx, "/g"); err != nil {
			t.Fatal(err)
		}
		g.Write(ctx, 0, 1<<20)
		audit("write after unlink", 6<<20)

		if err := a.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		audit("fsync", 1<<20)

		a.Write(ctx, 0, 1<<20)
		d := open("/d", rw)
		d.Write(ctx, 0, 3<<20)
		audit("rewrite", 5<<20)
		ctx.P.Sleep(r.client.params.DirtyExpire + 2*r.client.params.WritebackInterval)
		audit("flusher", 0)

		e := open("/e", rw)
		e.Write(ctx, 0, 2<<20)
		d.Write(ctx, 0, 1<<20)
		audit("before revoke", 3<<20)
		h, err := other.Open(ctx, "/e", vfsapi.RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		h.Close(ctx)
		audit("revoke", 1<<20)
		e.Write(ctx, 0, 1<<20)
		audit("write after revoke", 2<<20)

		r.client.Crash()
		audit("crash", 0)
		if err := r.client.Restart(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(ctx, 0, 1<<20); err == nil {
			t.Fatal("pre-crash handle accepted a write")
		}
		f := open("/f", rw)
		f.Write(ctx, 0, 1<<20)
		audit("restart", 1<<20)
		f.Close(ctx)
	})
}

// TestWriteAfterRevocationRecaps: a write through a handle whose file
// another client's open revoked re-acquires caps and lands on a current
// cfile — also when the revocation arrives while the write is parked,
// and when the path was unlinked or renamed since — and an append
// starts at the other client's end of file.
func TestWriteAfterRevocationRecaps(t *testing.T) {
	r := newRig(t, Config{})
	other := New(r.eng, r.cpus, model.Default(), r.clus, Config{Name: "other"})
	audit := func(step string, want int64) { t.Helper(); auditDirty(t, r.client, step, want) }
	r.run(t, func(ctx vfsapi.Ctx) {
		defer other.Stop()
		open := func(c *Client, path string, flags vfsapi.OpenFlag) vfsapi.Handle {
			h, err := c.Open(ctx, path, flags)
			if err != nil {
				t.Fatalf("%s open %s: %v", c.cfg.Name, path, err)
			}
			return h
		}
		revoke := func(path string) { open(other, path, vfsapi.RDONLY).Close(ctx) }
		rw := vfsapi.CREATE | vfsapi.WRONLY

		spawn := func(name string, fn func(ctx vfsapi.Ctx)) {
			r.eng.Go(name, func(p *sim.Proc) { fn(vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}) })
		}
		revokeIn := func(path string, at *time.Duration) {
			spawn("revoker", func(ctx vfsapi.Ctx) {
				h, err := other.Open(ctx, path, vfsapi.RDONLY)
				if err != nil {
					t.Errorf("other open %s: %v", path, err)
					return
				}
				h.Close(ctx)
				*at = r.eng.Now()
			})
		}

		// The 64 MiB copy runs on CPU after the writer drops
		// client_lock; the other client's open revokes the file then.
		p := open(r.client, "/p", rw)
		var revokedAt time.Duration
		revokeIn("/p", &revokedAt)
		start := r.eng.Now()
		if _, err := p.Write(ctx, 0, 64<<20); err != nil {
			t.Fatal(err)
		}
		if revokedAt <= start || revokedAt >= r.eng.Now() {
			t.Fatalf("revocation at %v did not land inside the write [%v, %v]", revokedAt, start, r.eng.Now())
		}
		audit("revoke during copy", 64<<20)

		// Here the revocation takes client_lock first, while the
		// finished copy waits on it to record the write.
		q := open(r.client, "/q", rw)
		var wrote time.Duration
		spawn("writer", func(ctx vfsapi.Ctx) {
			if _, err := q.Write(ctx, 0, 64<<20); err != nil {
				t.Errorf("write /q: %v", err)
			}
			wrote = r.eng.Now()
		})
		ctx.P.Sleep(time.Millisecond)
		lock := r.client.ClientLock()
		lock.Lock(ctx.P)
		revokeIn("/q", &revokedAt)
		ctx.P.Sleep(20 * time.Millisecond)
		if lock.Waiters() != 2 {
			t.Fatalf("%d waiters on client_lock, want the revoker and the writer", lock.Waiters())
		}
		lock.Unlock(ctx.P)
		for wrote == 0 {
			ctx.P.Sleep(time.Millisecond)
		}
		audit("revoke while the write waits on client_lock", 128<<20)
		for _, h := range []vfsapi.Handle{p, q} {
			if err := h.Fsync(ctx); err != nil {
				t.Fatal(err)
			}
		}
		audit("fsync after recap", 0)

		u := open(r.client, "/u", rw)
		u.Write(ctx, 0, 1<<20)
		revoke("/u")
		if err := other.Unlink(ctx, "/u"); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Write(ctx, 1<<20, 1<<20); err != nil {
			t.Fatalf("write to an open file unlinked elsewhere: %v", err)
		}
		audit("write after revoke and unlink", 1<<20)

		v := open(r.client, "/v", rw)
		v.Write(ctx, 0, 1<<20)
		revoke("/v")
		if err := other.Rename(ctx, "/v", "/w"); err != nil {
			t.Fatal(err)
		}
		if _, err := v.Write(ctx, 1<<20, 1<<20); err != nil {
			t.Fatalf("write to an open file renamed elsewhere: %v", err)
		}
		audit("write after revoke and rename", 2<<20)

		a := open(r.client, "/ap", rw)
		a.Write(ctx, 0, 1<<20)
		o := open(other, "/ap", vfsapi.WRONLY)
		o.Write(ctx, 1<<20, 1<<20)
		o.Close(ctx)
		off, err := a.Append(ctx, 1<<20)
		if err != nil || off != 2<<20 {
			t.Fatalf("append after the other client extended the file: off %d, %v; want %d", off, err, 2<<20)
		}
		audit("append after revoke", 3<<20)
	})
}
