package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

func newTestCluster(t *testing.T) (*sim.Engine, *Cluster, func(p *sim.Proc) vfsapi.Ctx) {
	t.Helper()
	e := sim.NewEngine()
	params := model.Default()
	c := New(e, params, 6)
	proc := cpu.New(e, params, 4)
	acct := cpu.NewAccount("test")
	mkCtx := func(p *sim.Proc) vfsapi.Ctx {
		return vfsapi.Ctx{P: p, T: proc.NewThread(acct, 0)}
	}
	return e, c, mkCtx
}

// create makes a file at the MDS and returns its ino.
func create(ctx vfsapi.Ctx, c *Cluster, path string) (uint64, error) {
	rep, err := c.Meta(ctx, MetaQuery{Op: MetaCreate, Path: path})
	return rep.Ino, err
}

func TestMetadataLifecycle(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		if _, err := c.Meta(ctx, MetaQuery{Op: MetaMkdir, Path: "/data"}); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		ino, err := create(ctx, c, "/data/f")
		if err != nil || ino == 0 {
			t.Errorf("create: ino=%d err=%v", ino, err)
		}
		if _, err := c.Meta(ctx, MetaQuery{Op: MetaSetSize, Path: "/data/f", Size: 4096}); err != nil {
			t.Errorf("setsize: %v", err)
		}
		rep, err := c.Meta(ctx, MetaQuery{Op: MetaLookup, Path: "/data/f"})
		if err != nil || rep.Info.Size != 4096 || rep.Ino != ino {
			t.Errorf("lookup: %+v ino=%d err=%v", rep.Info, rep.Ino, err)
		}
		rep, err = c.Meta(ctx, MetaQuery{Op: MetaReaddir, Path: "/data"})
		if ents := rep.Ents; err != nil || len(ents) != 1 || ents[0].Name != "f" {
			t.Errorf("readdir: %v err=%v", ents, err)
		}
		if _, err := c.Meta(ctx, MetaQuery{Op: MetaRename, Path: "/data/f", Path2: "/data/g"}); err != nil {
			t.Errorf("rename: %v", err)
		}
		if _, err := c.Meta(ctx, MetaQuery{Op: MetaUnlink, Path: "/data/g"}); err != nil {
			t.Errorf("unlink: %v", err)
		}
		if _, err := c.Meta(ctx, MetaQuery{Op: MetaRmdir, Path: "/data"}); err != nil {
			t.Errorf("rmdir: %v", err)
		}
		if _, err := c.Meta(ctx, MetaQuery{Op: MetaLookup, Path: "/data"}); !errors.Is(err, vfsapi.ErrNotExist) {
			t.Errorf("lookup removed dir: %v", err)
		}
	})
	e.Run()
	if c.MDSOps() == 0 {
		t.Fatal("MDS served no operations")
	}
}

func TestMetadataOpsTakeTime(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	var elapsed time.Duration
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		start := p.Now()
		c.Meta(ctx, MetaQuery{Op: MetaMkdir, Path: "/d"})
		elapsed = p.Now() - start
	})
	e.Run()
	if elapsed < model.Default().MDSOpCost {
		t.Fatalf("metadata op took %v, below MDS service time", elapsed)
	}
}

func TestWriteStripesAcrossOSDs(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, err := create(ctx, c, "/big")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		c.Write(ctx, ino, 0, 48<<20) // 12 objects of 4 MB over 6 OSDs
	})
	e.Run()
	busy := 0
	var total uint64
	for _, o := range c.OSDs() {
		if o.BytesWritten() > 0 {
			busy++
		}
		total += o.BytesWritten()
	}
	if total != 48<<20 {
		t.Fatalf("total stored = %d, want 48MB", total)
	}
	if busy < 4 {
		t.Fatalf("only %d OSDs used; placement not spreading", busy)
	}
}

func TestReadAfterWriteSameBytes(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, _ := create(ctx, c, "/f")
		c.Write(ctx, ino, 0, 10<<20)
		c.Read(ctx, ino, 0, 10<<20)
	})
	e.Run()
	var r uint64
	for _, o := range c.OSDs() {
		r += o.BytesRead()
	}
	if r != 10<<20 {
		t.Fatalf("read %d bytes from OSDs, want 10MB", r)
	}
}

func TestOSDMediaSerializes(t *testing.T) {
	// Two writers to the SAME object must serialize on that OSD's media,
	// while writers to objects on different OSDs overlap.
	e, c, mkCtx := newTestCluster(t)
	var sameDone time.Duration
	e.Go("w1", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, _ := create(ctx, c, "/f1")
		c.Write(ctx, ino, 0, 4<<20)
		c.Write(ctx, ino, 0, 4<<20)
		sameDone = p.Now()
	})
	e.Run()
	// 2 × 4MB × journal 1.5 at 2 GB/s = 6ms media floor.
	wantFloor := model.RateTime(12<<20, model.Default().OSDRamdiskBytesPerSec)
	if sameDone < wantFloor {
		t.Fatalf("writes finished at %v, below media floor %v", sameDone, wantFloor)
	}
}

func TestProvisionPopulatesNamespaceWithoutTime(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	if err := c.Provision("/images/base/bin/sh", 1<<20); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Fatal("provisioning consumed virtual time")
	}
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		rep, err := c.Meta(ctx, MetaQuery{Op: MetaLookup, Path: "/images/base/bin/sh"})
		if err != nil || rep.Info.Size != 1<<20 {
			t.Errorf("lookup provisioned: %+v err=%v", rep.Info, err)
		}
	})
	e.Run()
}

func TestMDSSaturationShowsQueueing(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	for i := 0; i < 8; i++ {
		e.Go("client", func(p *sim.Proc) {
			ctx := mkCtx(p)
			for j := 0; j < 50; j++ {
				c.Meta(ctx, MetaQuery{Op: MetaLookup, Path: "/"})
			}
		})
	}
	e.Run()
	if c.MDSQueueDelay() == 0 {
		t.Fatal("8 concurrent metadata streams produced no MDS queueing")
	}
}

// TestPlacementSpreadsProperty checks the object placement balances
// across OSDs for many files (a CRUSH-like uniformity property).
func TestPlacementSpreadsProperty(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	e.Go("w", func(p *sim.Proc) {
		ctx := mkCtx(p)
		for i := 0; i < 60; i++ {
			ino, err := create(ctx, c, fmt.Sprintf("/f%03d", i))
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			c.Write(ctx, ino, 0, 8<<20) // 2 objects each
		}
	})
	e.Run()
	var min, max uint64 = 1 << 62, 0
	for _, o := range c.OSDs() {
		if o.BytesWritten() < min {
			min = o.BytesWritten()
		}
		if o.BytesWritten() > max {
			max = o.BytesWritten()
		}
	}
	if min == 0 {
		t.Fatal("an OSD received nothing across 120 objects")
	}
	if max > 4*min {
		t.Fatalf("placement skew too high: min=%d max=%d", min, max)
	}
}

// TestLargeFileObjectCount verifies 4MB striping of a large file.
func TestLargeFileObjectCount(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	e.Go("w", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, _ := create(ctx, c, "/big")
		c.Write(ctx, ino, 0, 64<<20)
	})
	e.Run()
	objects := 0
	for _, o := range c.OSDs() {
		objects += o.Objects()
	}
	if objects != 16 {
		t.Fatalf("64MB file stored as %d objects, want 16 x 4MB", objects)
	}
}

func TestDegradedOSDSlowsButStaysCorrect(t *testing.T) {
	run := func(degrade bool) time.Duration {
		e, c, mkCtx := newTestCluster(t)
		if degrade {
			for _, o := range c.OSDs() {
				o.SetDegraded(8)
			}
		}
		e.Go("w", func(p *sim.Proc) {
			ctx := mkCtx(p)
			ino, _ := create(ctx, c, "/f")
			c.Write(ctx, ino, 0, 16<<20)
			c.Read(ctx, ino, 0, 16<<20)
		})
		e.Run()
		var stored uint64
		for _, o := range c.OSDs() {
			stored += o.BytesWritten()
		}
		if stored != 16<<20 {
			t.Fatalf("degraded=%v stored %d", degrade, stored)
		}
		return e.Now()
	}
	healthy := run(false)
	degraded := run(true)
	if degraded <= healthy {
		t.Fatalf("degradation had no effect: %v vs %v", degraded, healthy)
	}
}

func TestReplicationFansOutWrites(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	c.SetReplication(3)
	if c.Replication() != 3 {
		t.Fatalf("replication = %d", c.Replication())
	}
	e.Go("w", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, _ := create(ctx, c, "/f")
		c.Write(ctx, ino, 0, 4<<20) // one object
	})
	e.Run()
	var copies int
	var stored uint64
	for _, o := range c.OSDs() {
		if o.BytesWritten() > 0 {
			copies++
		}
		stored += o.BytesWritten()
	}
	if copies != 3 {
		t.Fatalf("object written on %d OSDs, want 3", copies)
	}
	if stored != 3*(4<<20) {
		t.Fatalf("total stored = %d", stored)
	}
}

func TestReplicationClamps(t *testing.T) {
	_, c, _ := newTestCluster(t)
	c.SetReplication(0)
	if c.Replication() != 1 {
		t.Fatalf("clamp low: %d", c.Replication())
	}
	c.SetReplication(100)
	if c.Replication() != 6 {
		t.Fatalf("clamp high: %d", c.Replication())
	}
}
