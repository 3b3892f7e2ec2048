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
