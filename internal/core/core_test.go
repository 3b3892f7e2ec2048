package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/kern"
	"repro/internal/nstree"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

func newTB(t *testing.T, cores int) *Testbed {
	t.Helper()
	return NewTestbed(TestbedConfig{Cores: cores})
}

// runOn executes fn as a container thread and drains the testbed.
func runOn(t *testing.T, tb *Testbed, c *Container, fn func(ctx vfsapi.Ctx)) {
	t.Helper()
	tb.Eng.Go("app", func(p *sim.Proc) {
		fn(vfsapi.Ctx{P: p, T: c.NewThread()})
		tb.Stop()
	})
	tb.Eng.Run()
	if tb.Eng.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", tb.Eng.LiveProcs())
	}
}

func provisionImage(tb *Testbed, dir string) {
	tb.Cluster.ProvisionDir(dir)
	tb.Cluster.Provision(dir+"/bin/app", 1<<20)
	tb.Cluster.Provision(dir+"/etc/conf", 4<<10)
}

func TestAllConfigurationsServeBasicIO(t *testing.T) {
	for _, cfg := range AllConfigurations() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			tb := newTB(t, 4)
			provisionImage(tb, "/images/base")
			tb.Cluster.ProvisionDir("/containers/c0")
			pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
			spec := MountSpec{Config: cfg, UpperDir: "/containers/c0"}
			if cfg.HasUnion() || cfg == ConfigD {
				spec.LowerDir = "/images/base"
			}
			c, err := pool.NewContainer("c0", spec)
			if err != nil {
				t.Fatal(err)
			}
			runOn(t, tb, c, func(ctx vfsapi.Ctx) {
				// Read a file from the (lower) image if unioned,
				// otherwise create one.
				if spec.LowerDir != "" {
					h, err := c.Mount.Default.Open(ctx, "/bin/app", vfsapi.RDONLY)
					if err != nil {
						t.Errorf("open image file: %v", err)
						return
					}
					if got, _ := h.Read(ctx, 0, 1<<20); got != 1<<20 {
						t.Errorf("read %d", got)
					}
					h.Close(ctx)
				}
				// Write a private file.
				h, err := c.Mount.Default.Open(ctx, "/data.log", vfsapi.CREATE|vfsapi.WRONLY)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if got, _ := h.Write(ctx, 0, 256<<10); got != 256<<10 {
					t.Errorf("wrote %d", got)
				}
				if err := h.Fsync(ctx); err != nil {
					t.Errorf("fsync: %v", err)
				}
				h.Close(ctx)
				info, err := c.Mount.Default.Stat(ctx, "/data.log")
				if err != nil || info.Size != 256<<10 {
					t.Errorf("stat: %+v %v", info, err)
				}
			})
		})
	}
}

func TestDanausDefaultPathAvoidsKernel(t *testing.T) {
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, err := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		h, _ := c.Mount.Default.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		h.Close(ctx)
	})
	// The only kernel involvement should be network syscalls of the
	// client (2 mode switches per wire op), never FUSE/VFS crossings.
	if pool.Acct.ContextSwitches() > 2 {
		t.Fatalf("default path context switches = %d", pool.Acct.ContextSwitches())
	}
	if c.Mount.IPC.Calls() == 0 {
		t.Fatal("no IPC calls recorded on the Danaus path")
	}
}

func TestDanausLegacyPathUsesFUSE(t *testing.T) {
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	tb.Cluster.Provision("/containers/c0/bin/sh", 1<<20)
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		h, err := c.Mount.Legacy.Open(ctx, "/bin/sh", vfsapi.RDONLY)
		if err != nil {
			t.Errorf("legacy open: %v", err)
			return
		}
		h.Read(ctx, 0, 1<<20)
		h.Close(ctx)
	})
	if pool.Acct.ContextSwitches() < 2 {
		t.Fatal("legacy path did not cross FUSE")
	}
}

func TestDanausAndLegacySeeSameFiles(t *testing.T) {
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		h, _ := c.Mount.Default.Open(ctx, "/shared.txt", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 4096)
		h.Close(ctx)
		info, err := c.Mount.Legacy.Stat(ctx, "/shared.txt")
		if err != nil || info.Size != 4096 {
			t.Errorf("legacy view: %+v %v (dual interface must share state)", info, err)
		}
	})
}

func TestCloneSharingThroughSharedClient(t *testing.T) {
	// Scaleup: two cloned containers over one shared client; the shared
	// lower image is cached once.
	tb := newTB(t, 4)
	provisionImage(tb, "/images/base")
	tb.Cluster.ProvisionDir("/containers/c0")
	tb.Cluster.ProvisionDir("/containers/c1")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1, 2, 3), 16<<30)
	c0, _ := pool.NewContainer("c0", MountSpec{
		Config: ConfigD, UpperDir: "/containers/c0", LowerDir: "/images/base",
	})
	c1, _ := pool.NewContainer("c1", MountSpec{
		Config: ConfigD, UpperDir: "/containers/c1", LowerDir: "/images/base",
		SharedClient: c0.Mount.Client,
	})
	if c1.Mount.Client != c0.Mount.Client {
		t.Fatal("clone did not share the client")
	}
	runOn(t, tb, c0, func(ctx vfsapi.Ctx) {
		h, _ := c0.Mount.Default.Open(ctx, "/bin/app", vfsapi.RDONLY)
		h.Read(ctx, 0, 1<<20)
		h.Close(ctx)
		var before uint64
		for _, o := range tb.Cluster.OSDs() {
			before += o.BytesRead()
		}
		// The clone reads the same image file: must be served from the
		// shared client cache without OSD traffic.
		h2, err := c1.Mount.Default.Open(ctx, "/bin/app", vfsapi.RDONLY)
		if err != nil {
			t.Errorf("clone open: %v", err)
			return
		}
		h2.Read(ctx, 0, 1<<20)
		h2.Close(ctx)
		var after uint64
		for _, o := range tb.Cluster.OSDs() {
			after += o.BytesRead()
		}
		if after != before {
			t.Errorf("clone read hit OSDs: %d extra bytes", after-before)
		}
	})
}

func TestCloneWritesAreIsolated(t *testing.T) {
	tb := newTB(t, 4)
	provisionImage(tb, "/images/base")
	tb.Cluster.ProvisionDir("/containers/c0")
	tb.Cluster.ProvisionDir("/containers/c1")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1, 2, 3), 16<<30)
	c0, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0", LowerDir: "/images/base"})
	c1, _ := pool.NewContainer("c1", MountSpec{Config: ConfigD, UpperDir: "/containers/c1", LowerDir: "/images/base", SharedClient: c0.Mount.Client})
	runOn(t, tb, c0, func(ctx vfsapi.Ctx) {
		// c0 modifies an image file (copy-up into its upper branch).
		h, err := c0.Mount.Default.Open(ctx, "/etc/conf", vfsapi.WRONLY|vfsapi.APPEND)
		if err != nil {
			t.Errorf("open for append: %v", err)
			return
		}
		h.Append(ctx, 100)
		h.Close(ctx)
		// c1 still sees the pristine image file.
		info, err := c1.Mount.Default.Stat(ctx, "/etc/conf")
		if err != nil || info.Size != 4<<10 {
			t.Errorf("clone isolation broken: %+v %v", info, err)
		}
		info0, _ := c0.Mount.Default.Stat(ctx, "/etc/conf")
		if info0.Size != 4<<10+100 {
			t.Errorf("c0 modified size = %d", info0.Size)
		}
	})
}

func TestLibraryFDTable(t *testing.T) {
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	lib := NewLibrary(nil)
	lib.AttachMount("/mnt/danaus", c.Mount.Default)
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		fd, err := lib.OpenFD(ctx, "/mnt/danaus/file", vfsapi.CREATE|vfsapi.RDWR)
		if err != nil {
			t.Errorf("openfd: %v", err)
			return
		}
		if n, _ := lib.WriteFD(ctx, fd, 100); n != 100 {
			t.Errorf("write %d", n)
		}
		if n, _ := lib.WriteFD(ctx, fd, 50); n != 50 {
			t.Errorf("write %d", n)
		}
		lib.SeekFD(fd, 0)
		if n, _ := lib.ReadFD(ctx, fd, 150); n != 150 {
			t.Errorf("sequential read got %d", n)
		}
		if n, _ := lib.PReadFD(ctx, fd, 100, 50); n != 50 {
			t.Errorf("pread got %d", n)
		}
		if err := lib.FsyncFD(ctx, fd); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := lib.CloseFD(ctx, fd); err != nil {
			t.Errorf("close: %v", err)
		}
		if _, err := lib.ReadFD(ctx, fd, 1); !errors.Is(err, vfsapi.ErrClosed) {
			t.Errorf("read closed fd: %v", err)
		}
		// FD recycling.
		fd2, _ := lib.OpenFD(ctx, "/mnt/danaus/file", vfsapi.RDONLY)
		if fd2 != fd {
			t.Errorf("fd not recycled: %d vs %d", fd2, fd)
		}
		lib.CloseFD(ctx, fd2)
		if lib.OpenFDs() != 0 {
			t.Errorf("leaked fds: %d", lib.OpenFDs())
		}
		// Paths outside every mount fail without a fallback.
		if _, err := lib.OpenFD(ctx, "/etc/passwd", vfsapi.RDONLY); !errors.Is(err, vfsapi.ErrNotExist) {
			t.Errorf("unrouted path: %v", err)
		}
	})
}

func TestPoolIsolationOfDanausService(t *testing.T) {
	// A Danaus container hammering I/O must not consume the cores of a
	// second pool.
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	pool0 := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	tb.NewPool("pool1", cpu.MaskOf(2, 3), 8<<30)
	c, _ := pool0.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		h, _ := c.Mount.Default.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 64; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
	})
	util := tb.CPU.UtilSnapshot()
	if util[2] != 0 || util[3] != 0 {
		t.Fatalf("Danaus I/O leaked onto pool1 cores: %v", util)
	}
}

func TestPoolMasks(t *testing.T) {
	tb := newTB(t, 8)
	masks := tb.PoolMasks(3)
	if len(masks) != 3 || masks[0] != cpu.MaskOf(0, 1) || masks[2] != cpu.MaskOf(4, 5) {
		t.Fatalf("masks = %v", masks)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when pools exceed cores")
		}
	}()
	tb.PoolMasks(5)
}

// TestNewPoolRejectsCoresOffHost checks that a pool cannot reserve a
// core the host lacks: on a 4-core host, cores 4 and 5 would leave the
// pool's threads with no core to run on.
func TestNewPoolRejectsCoresOffHost(t *testing.T) {
	tb := newTB(t, 4)
	tb.NewPool("ok", cpu.MaskOf(2, 3), 1<<30)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "{4,5}") || !strings.Contains(msg, "4-core host") {
			t.Fatalf("panic %q, want one naming mask {4,5} and the 4-core host", msg)
		}
		if len(tb.Pools()) != 1 {
			t.Fatalf("%d pools after a refused reservation, want 1", len(tb.Pools()))
		}
	}()
	tb.NewPool("bad", cpu.MaskOf(4, 5), 1<<30)
}

func TestConfigurationStrings(t *testing.T) {
	want := map[Configuration]string{
		ConfigD: "D", ConfigK: "K", ConfigF: "F", ConfigFP: "FP",
		ConfigKK: "K/K", ConfigFK: "F/K", ConfigFF: "F/F", ConfigFPFP: "FP/FP",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%v.String() = %q", c, c.String())
		}
	}
	if !ConfigD.UserLevelClient() || ConfigK.UserLevelClient() {
		t.Fatal("UserLevelClient classification wrong")
	}
	if !ConfigFF.HasUnion() || ConfigF.HasUnion() {
		t.Fatal("HasUnion classification wrong")
	}
}

func TestFFHasMoreContextSwitchesThanD(t *testing.T) {
	// The Fig 8b mechanism at unit scale: the same workload crossing
	// two FUSE daemons (F/F) versus Danaus IPC.
	run := func(cfg Configuration) uint64 {
		tb := newTB(t, 4)
		provisionImage(tb, "/images/base")
		tb.Cluster.ProvisionDir("/containers/c0")
		pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
		c, err := pool.NewContainer("c0", MountSpec{
			Config: cfg, UpperDir: "/containers/c0", LowerDir: "/images/base",
		})
		if err != nil {
			t.Fatal(err)
		}
		runOn(t, tb, c, func(ctx vfsapi.Ctx) {
			h, _ := c.Mount.Default.Open(ctx, "/out", vfsapi.CREATE|vfsapi.WRONLY)
			for i := int64(0); i < 8; i++ {
				h.Write(ctx, i*256<<10, 256<<10)
			}
			h.Close(ctx)
		})
		return pool.Acct.ContextSwitches()
	}
	dSwitches := run(ConfigD)
	ffSwitches := run(ConfigFF)
	if ffSwitches < 8*dSwitches {
		t.Fatalf("F/F switches = %d, D = %d; expected >= 8x gap", ffSwitches, dSwitches)
	}
}

func TestContainerMigration(t *testing.T) {
	tb := newTB(t, 8)
	provisionImage(tb, "/images/base")
	tb.Cluster.ProvisionDir("/containers/m0")
	src := tb.NewPool("src", cpu.MaskOf(0, 1), 8<<30)
	dst := tb.NewPool("dst", cpu.MaskOf(2, 3), 8<<30)
	c, err := src.NewContainer("m0", MountSpec{
		Config: ConfigD, UpperDir: "/containers/m0", LowerDir: "/images/base",
	})
	if err != nil {
		t.Fatal(err)
	}
	tb.Eng.Go("migrator", func(p *sim.Proc) {
		defer tb.Stop()
		ctx := vfsapi.Ctx{P: p, T: c.NewThread()}
		// Write state through the source container (left dirty in its
		// client cache).
		h, _ := c.Mount.Default.Open(ctx, "/state.db", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 2<<20)
		h.Close(ctx)

		moved, err := c.MigrateTo(ctx, dst)
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		if !c.Stopped() || moved.Pool != dst {
			t.Error("migration bookkeeping wrong")
		}
		// The destination container (fresh client, destination cores)
		// sees the flushed state through the shared backend.
		dctx := vfsapi.Ctx{P: p, T: moved.NewThread()}
		info, err := moved.Mount.Default.Stat(dctx, "/state.db")
		if err != nil || info.Size != 2<<20 {
			t.Errorf("migrated state: %+v %v", info, err)
		}
		// And still sees the shared image.
		if _, err := moved.Mount.Default.Stat(dctx, "/bin/app"); err != nil {
			t.Errorf("migrated image view: %v", err)
		}
		// Double migration is rejected.
		if _, err := c.MigrateTo(ctx, dst); err == nil {
			t.Error("second migration should fail")
		}
	})
	tb.Eng.Run()
	if tb.Eng.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", tb.Eng.LiveProcs())
	}
}

func TestMigrationRejectedForSharedClient(t *testing.T) {
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/s0")
	tb.Cluster.ProvisionDir("/containers/s1")
	pool := tb.NewPool("p", cpu.MaskOf(0, 1), 8<<30)
	dst := tb.NewPool("d", cpu.MaskOf(2, 3), 8<<30)
	c0, _ := pool.NewContainer("s0", MountSpec{Config: ConfigD, UpperDir: "/containers/s0"})
	c1, _ := pool.NewContainer("s1", MountSpec{
		Config: ConfigD, UpperDir: "/containers/s1", SharedClient: c0.Mount.Client,
	})
	runOn(t, tb, c1, func(ctx vfsapi.Ctx) {
		if _, err := c1.MigrateTo(ctx, dst); err == nil {
			t.Error("migration of shared-client container should be rejected")
		}
	})
}

func TestMultipleServicesPerTenantDistinctSettings(t *testing.T) {
	// §5 flexibility: one tenant runs several filesystem services with
	// distinct cache settings.
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/a")
	tb.Cluster.ProvisionDir("/containers/b")
	pool := tb.NewPool("tenant", cpu.MaskOf(0, 1), 8<<30)
	big, err := pool.NewContainer("a", MountSpec{
		Config: ConfigD, UpperDir: "/containers/a", CacheBytes: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	small, err := pool.NewContainer("b", MountSpec{
		Config: ConfigD, UpperDir: "/containers/b", CacheBytes: 8 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.Mount.Client == small.Mount.Client {
		t.Fatal("distinct services should have distinct clients")
	}
	runOn(t, tb, small, func(ctx vfsapi.Ctx) {
		// The small-cache service evicts under a working set the big
		// one retains.
		h, _ := small.Mount.Default.Open(ctx, "/ws", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 32; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Fsync(ctx)
		h.Close(ctx)
		if cur := small.Mount.Client.Meter().Current(); cur > 8<<20 {
			t.Errorf("small cache exceeded its limit: %d", cur)
		}
	})
}

func TestLibraryDirectoryStreamsAndPipes(t *testing.T) {
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	lib := NewLibrary(nil)
	lib.AttachMount("/mnt", c.Mount.Default)
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		lib.Mkdir(ctx, "/mnt/d")
		for _, name := range []string{"a", "b", "c"} {
			fd, _ := lib.OpenFD(ctx, "/mnt/d/"+name, vfsapi.CREATE|vfsapi.WRONLY)
			lib.CloseFD(ctx, fd)
		}
		// Directory stream through the overloaded file table.
		dfd, err := lib.OpendirFD(ctx, "/mnt/d")
		if err != nil {
			t.Errorf("opendir: %v", err)
			return
		}
		first, _ := lib.ReaddirFD(dfd, 2)
		rest, _ := lib.ReaddirFD(dfd, 0)
		if len(first) != 2 || len(rest) != 1 {
			t.Errorf("readdir batches: %d then %d", len(first), len(rest))
		}
		if more, _ := lib.ReaddirFD(dfd, 0); len(more) != 0 {
			t.Errorf("stream should be exhausted, got %d", len(more))
		}
		lib.RewinddirFD(dfd)
		if again, _ := lib.ReaddirFD(dfd, 0); len(again) != 3 {
			t.Errorf("rewind failed: %d entries", len(again))
		}
		// Regular I/O on a directory stream fd is rejected.
		if _, err := lib.ReadFD(ctx, dfd, 10); !errors.Is(err, vfsapi.ErrBadFlags) {
			t.Errorf("read on dirstream: %v", err)
		}
		lib.CloseFD(ctx, dfd)

		// Pipes live in the same table.
		r, w := lib.PipeFD()
		if n, _ := lib.WritePipeFD(w, 100); n != 100 {
			t.Errorf("pipe write %d", n)
		}
		if n, _ := lib.ReadPipeFD(r, 60); n != 60 {
			t.Errorf("pipe read %d", n)
		}
		if n, _ := lib.ReadPipeFD(r, 100); n != 40 {
			t.Errorf("pipe drain %d", n)
		}
		if _, err := lib.ReadPipeFD(w, 1); !errors.Is(err, vfsapi.ErrBadFlags) {
			t.Errorf("read on write end: %v", err)
		}
		lib.CloseFD(ctx, r)
		if _, err := lib.WritePipeFD(w, 1); !errors.Is(err, vfsapi.ErrClosed) {
			t.Errorf("write after peer close: %v", err)
		}
		lib.CloseFD(ctx, w)
	})
}

func TestFaultContainmentOfFailedService(t *testing.T) {
	// §5 Isolation: a failed filesystem service affects the processes
	// of a single pool, not the host kernel or other pools. Data that
	// was flushed to the backend before the crash survives a remount;
	// unflushed writes are lost (§3.4).
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/victim")
	tb.Cluster.ProvisionDir("/containers/bystander")
	victimPool := tb.NewPool("victim", cpu.MaskOf(0, 1), 8<<30)
	otherPool := tb.NewPool("bystander", cpu.MaskOf(2, 3), 8<<30)
	victim, _ := victimPool.NewContainer("victim", MountSpec{Config: ConfigD, UpperDir: "/containers/victim"})
	bystander, _ := otherPool.NewContainer("bystander", MountSpec{Config: ConfigD, UpperDir: "/containers/bystander"})

	tb.Eng.Go("driver", func(p *sim.Proc) {
		defer tb.Stop()
		vctx := vfsapi.Ctx{P: p, T: victim.NewThread()}
		bctx := vfsapi.Ctx{P: p, T: bystander.NewThread()}

		// Durable write (fsynced) and a volatile write (cached only).
		h, _ := victim.Mount.Default.Open(vctx, "/durable", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(vctx, 0, 1<<20)
		h.Fsync(vctx)
		h.Close(vctx)
		h2, _ := victim.Mount.Default.Open(vctx, "/volatile", vfsapi.CREATE|vfsapi.WRONLY)
		h2.Write(vctx, 0, 1<<20)
		// no fsync, no close: dirty only in the victim's client cache

		victim.Mount.Client.Crash()

		// The victim's service is dead.
		if _, err := victim.Mount.Default.Stat(vctx, "/durable"); err == nil {
			t.Error("crashed service still answers")
		}
		// The bystander pool is completely unaffected.
		hb, err := bystander.Mount.Default.Open(bctx, "/alive", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Errorf("bystander impacted by foreign crash: %v", err)
			return
		}
		hb.Write(bctx, 0, 4096)
		hb.Close(bctx)

		// Remount (restart the service) in the same pool: durable data
		// is back, the unflushed write never reached the backend.
		restarted, err := victimPool.NewContainer("victim2", MountSpec{Config: ConfigD, UpperDir: "/containers/victim"})
		if err != nil {
			t.Fatalf("remount after crash: %v", err)
		}
		rctx := vfsapi.Ctx{P: p, T: restarted.NewThread()}
		info, err := restarted.Mount.Default.Stat(rctx, "/durable")
		if err != nil || info.Size != 1<<20 {
			t.Errorf("durable data lost: %+v %v", info, err)
		}
		info, err = restarted.Mount.Default.Stat(rctx, "/volatile")
		if err != nil && !errors.Is(err, vfsapi.ErrNotExist) {
			t.Errorf("unexpected error for volatile file: %v", err)
		}
		if err == nil && info.Size == 1<<20 {
			t.Error("unflushed write survived the crash (should be lost)")
		}
	})
	tb.Eng.Run()
}

func TestConsistencyReadAfterWriteSameClient(t *testing.T) {
	// §3.4: when a write returns it has reached the client cache and is
	// visible to a subsequent read through the same backend client,
	// including from a DIFFERENT container sharing that client.
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/w")
	tb.Cluster.ProvisionDir("/containers/r")
	pool := tb.NewPool("p", cpu.MaskOf(0, 1), 8<<30)
	writer, _ := pool.NewContainer("w", MountSpec{Config: ConfigD, UpperDir: "/shared"})
	tb.Cluster.ProvisionDir("/shared")
	reader, _ := pool.NewContainer("r", MountSpec{
		Config: ConfigD, UpperDir: "/shared", SharedClient: writer.Mount.Client,
	})
	runOn(t, tb, writer, func(ctx vfsapi.Ctx) {
		h, _ := writer.Mount.Default.Open(ctx, "/msg", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 777)
		h.Close(ctx)
		// Visible immediately through the shared client, before any
		// flush to the backend.
		rctx := vfsapi.Ctx{P: ctx.P, T: reader.NewThread()}
		hr, err := reader.Mount.Default.Open(rctx, "/msg", vfsapi.RDONLY)
		if err != nil {
			t.Errorf("reader open: %v", err)
			return
		}
		if got, _ := hr.Read(rctx, 0, 10000); got != 777 {
			t.Errorf("read %d bytes, want 777 (write visibility)", got)
		}
		hr.Close(rctx)
	})
}

func TestCentralAdministrationThroughBackend(t *testing.T) {
	// §5 flexibility: administration tasks (e.g. malware scanning,
	// software inventory) run centrally against the storage backend,
	// without touching the containers at all.
	tb := newTB(t, 4)
	provisionImage(tb, "/images/base")
	for _, name := range []string{"a", "b", "c"} {
		tb.Cluster.ProvisionDir("/containers/" + name)
		tb.Cluster.Provision("/containers/"+name+"/secret.bin", 1234)
	}
	// The admin walks the shared namespace directly on the backend.
	var files int
	var bytes int64
	if err := tb.Cluster.Tree().Walk("/containers", func(p string, n *nstree.Node) {
		if !n.Dir {
			files++
			bytes += n.Size
		}
	}); err != nil {
		t.Fatal(err)
	}
	if files != 3 || bytes != 3*1234 {
		t.Fatalf("central scan found %d files / %d bytes", files, bytes)
	}
}

func TestTable1CompositionInvariants(t *testing.T) {
	// Each Table 1 row assembles exactly the caches and layers the
	// paper's configuration matrix specifies.
	type want struct {
		client bool // user-level client cache (UlcC)
		kmount bool // a kernel page cache in the stack (PagC)
		union  bool
		ipc    bool
	}
	wants := map[Configuration]want{
		ConfigD:    {client: true, ipc: true, union: true},
		ConfigK:    {kmount: true},
		ConfigF:    {client: true},
		ConfigFP:   {client: true, kmount: true},
		ConfigKK:   {kmount: true, union: true},
		ConfigFK:   {kmount: true, union: true},
		ConfigFF:   {client: true, union: true},
		ConfigFPFP: {client: true, kmount: true, union: true},
	}
	for cfg, w := range wants {
		cfg, w := cfg, w
		t.Run(cfg.String(), func(t *testing.T) {
			tb := newTB(t, 4)
			provisionImage(tb, "/images/base")
			tb.Cluster.ProvisionDir("/containers/x")
			pool := tb.NewPool("p", cpu.MaskOf(0, 1), 8<<30)
			spec := MountSpec{Config: cfg, UpperDir: "/containers/x"}
			if w.union {
				spec.LowerDir = "/images/base"
			}
			c, err := pool.NewContainer("x", spec)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.Mount.Client != nil; got != w.client {
				t.Errorf("client present=%v want %v", got, w.client)
			}
			if got := c.Mount.KernelMount != nil; got != w.kmount {
				t.Errorf("kernel mount present=%v want %v", got, w.kmount)
			}
			if got := c.Mount.Union != nil; got != w.union {
				t.Errorf("union present=%v want %v", got, w.union)
			}
			if got := c.Mount.IPC != nil; got != w.ipc {
				t.Errorf("ipc present=%v want %v", got, w.ipc)
			}
			if c.Mount.Default == nil || c.Mount.Legacy == nil {
				t.Error("missing interface")
			}
			tb.Stop()
			tb.Eng.Run()
		})
	}
}

func TestLibraryKernelFallback(t *testing.T) {
	// §3.2: a path missing from the mount table goes to the kernel.
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	tb.LocalStore.Provision("/etc/hosts", 512)
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	lib := NewLibrary(kern.NewSyscalls(tb.Kernel, tb.LocalFS))
	lib.AttachMount("/mnt/ceph", c.Mount.Default)
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		// Inside the mount: served by Danaus.
		fd, err := lib.OpenFD(ctx, "/mnt/ceph/x", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Errorf("danaus path: %v", err)
			return
		}
		lib.CloseFD(ctx, fd)
		// Outside every mount: served by the kernel (local ext4).
		before := pool.Acct.ModeSwitches()
		fd2, err := lib.OpenFD(ctx, "/etc/hosts", vfsapi.RDONLY)
		if err != nil {
			t.Errorf("fallback path: %v", err)
			return
		}
		if n, _ := lib.ReadFD(ctx, fd2, 512); n != 512 {
			t.Errorf("fallback read %d", n)
		}
		lib.CloseFD(ctx, fd2)
		if pool.Acct.ModeSwitches() == before {
			t.Error("fallback path did not enter the kernel")
		}
	})
}

func TestPoolMemoryGroupTracksAllCaches(t *testing.T) {
	// The FP configuration charges BOTH the client cache and the page
	// cache to the pool's memory group (the Fig 11 accounting).
	tb := newTB(t, 4)
	tb.Cluster.Provision("/containers/c0/data", 8<<20)
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, err := pool.NewContainer("c0", MountSpec{Config: ConfigFP, UpperDir: "/containers/c0"})
	if err != nil {
		t.Fatal(err)
	}
	runOn(t, tb, c, func(ctx vfsapi.Ctx) {
		h, err := c.Mount.Default.Open(ctx, "/data", vfsapi.RDONLY)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		h.Read(ctx, 0, 8<<20)
		h.Close(ctx)
		// Double caching: group total ~2x the file (page cache + user
		// cache both hold it).
		if got := pool.Memory.Current(); got < 2*(8<<20) {
			t.Errorf("FP group memory = %d, want >= 16MB (double caching)", got)
		}
		// The individual meters both contribute.
		if c.Mount.Client.Meter().Current() < 8<<20 {
			t.Errorf("client cache = %d", c.Mount.Client.Meter().Current())
		}
		if c.Mount.KernelMount.Meter().Current() < 8<<20 {
			t.Errorf("page cache = %d", c.Mount.KernelMount.Meter().Current())
		}
	})
}

func TestDynamicPoolRepin(t *testing.T) {
	// §9 future work: reallocate a pool's cores at runtime. After the
	// repin, all of the pool's service activity moves to the new cores.
	tb := newTB(t, 4)
	tb.Cluster.ProvisionDir("/containers/c0")
	pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
	c, _ := pool.NewContainer("c0", MountSpec{Config: ConfigD, UpperDir: "/containers/c0"})
	tb.Eng.Go("app", func(p *sim.Proc) {
		defer tb.Stop()
		th := c.NewThread()
		ctx := vfsapi.Ctx{P: p, T: th}
		h, _ := c.Mount.Default.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 8; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		before := tb.CPU.UtilSnapshot()
		if before[2] != 0 || before[3] != 0 {
			t.Error("activity on cores 2,3 before repin")
		}
		// Move the pool to cores {2,3}.
		pool.Repin(cpu.MaskOf(2, 3))
		th.SetAffinity(cpu.MaskOf(2, 3))
		for i := int64(8); i < 16; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
		after := tb.CPU.UtilSnapshot()
		if after[0] != before[0] || after[1] != before[1] {
			t.Errorf("activity continued on old cores after repin: %v -> %v", before[:2], after[:2])
		}
		if after[2] == before[2] && after[3] == before[3] {
			t.Error("no activity on the new cores after repin")
		}
	})
	tb.Eng.Run()
}

func TestLegacyInterfaceIdentityPerConfig(t *testing.T) {
	// Only Danaus has a distinct legacy path (FUSE); for every other
	// configuration the kernel-initiated I/O takes the same route as
	// the default interface.
	for _, cfg := range AllConfigurations() {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			tb := newTB(t, 4)
			provisionImage(tb, "/images/base")
			tb.Cluster.ProvisionDir("/containers/x")
			pool := tb.NewPool("p", cpu.MaskOf(0, 1), 8<<30)
			spec := MountSpec{Config: cfg, UpperDir: "/containers/x"}
			if cfg.HasUnion() || cfg == ConfigD {
				spec.LowerDir = "/images/base"
			}
			c, err := pool.NewContainer("x", spec)
			if err != nil {
				t.Fatal(err)
			}
			same := c.Mount.Default == c.Mount.Legacy
			if cfg == ConfigD && same {
				t.Error("Danaus must have a distinct legacy path")
			}
			if cfg != ConfigD && !same {
				t.Error("non-Danaus configurations use one path for both")
			}
			tb.Stop()
			tb.Eng.Run()
		})
	}
}

func TestWorkloadsTable2Complete(t *testing.T) {
	rows := workloads.Table2()
	if len(rows) != 9 {
		t.Fatalf("Table 2 rows = %d", len(rows))
	}
	want := []string{"FLS", "RND", "SSB", "WBS"}
	for i, sym := range want {
		if rows[i][0] != sym {
			t.Fatalf("row %d = %q, want %q", i, rows[i][0], sym)
		}
	}
}

// TestCachedReadParks pins how often one cached 1 MiB Read, and one
// 1 MiB Write into the cache, park their process in each stack of
// Table 1, built as the experiments build it:
//   - once under D, where the IPC dispatch starts the client's request
//     run;
//   - once under F, where each 128 KiB chunk's dispatch starts the run,
//     the run starts the reply and the reply's end starts the next
//     chunk's crossing;
//   - once under F/F, where unionfs-fuse's dispatch starts the ceph-fuse
//     crossing of each chunk as a run on its daemon thread, and the end
//     of the inner reply starts the outer reply;
//   - under F/K, twice per chunk and once more: unionfs-fuse serves a
//     kernel page-cache handle, which starts no run, so the process
//     serves each chunk (the kernel request parks once) and parks again
//     from the reply to the next chunk's dispatch;
//   - once under K, K/K, FP and FP/FP, whose Syscalls runs the kernel
//     request on the top page-cache handle itself (AUFS opens return
//     the branch's handle).
//
// The Open and Close around them are runs too, pinned separately by
// TestCachedMetadataParks. A layer slipped between a transport and the
// client that drops the hand-off shows here as more parks.
func TestCachedReadParks(t *testing.T) {
	const size = 1 << 20
	for _, c := range []struct {
		cfg         Configuration
		read, write int
	}{
		{ConfigD, 1, 1}, {ConfigF, 1, 1}, {ConfigFF, 1, 1}, {ConfigK, 1, 1},
		{ConfigKK, 1, 1}, {ConfigFK, 17, 17}, {ConfigFP, 1, 1}, {ConfigFPFP, 1, 1},
	} {
		tb := newTB(t, 4)
		tb.Cluster.ProvisionDir("/containers/c0")
		pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
		ct, err := pool.NewContainer("c0", MountSpec{Config: c.cfg, UpperDir: "/containers/c0"})
		if err != nil {
			t.Fatal(err)
		}
		runOn(t, tb, ct, func(ctx vfsapi.Ctx) {
			h, err := ct.Mount.Default.Open(ctx, "/f", vfsapi.CREATE|vfsapi.RDWR)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(ctx, 0, size)
			h.Read(ctx, 0, size)
			before := ctx.P.Parks()
			if n, err := h.Read(ctx, 0, size); n != size || err != nil {
				t.Fatalf("%v: cached Read returned %d, %v", c.cfg, n, err)
			}
			if got := ctx.P.Parks() - before; got != c.read {
				t.Errorf("%v: a cached 1 MiB Read parked %d times, want %d", c.cfg, got, c.read)
			}
			before = ctx.P.Parks()
			if n, err := h.Write(ctx, 0, size); n != size || err != nil {
				t.Fatalf("%v: cached Write returned %d, %v", c.cfg, n, err)
			}
			if got := ctx.P.Parks() - before; got != c.write {
				t.Errorf("%v: a cached 1 MiB Write parked %d times, want %d", c.cfg, got, c.write)
			}
			h.Close(ctx)
		})
	}
}

// TestCachedMetadataParks pins how often an Open and a Close park their
// process in each stack of Table 1, built as the experiments build it:
// a cached Open (the path's attributes are cached and its caps granted),
// an Open that misses to the MDS, and the Close of a written file, which
// pushes its size to the MDS. A cached Open and the size-pushing Close
// park once under D, F and K: the IPC dispatch, the FUSE dispatch and
// the system call start the client's Open and Close runs, and the MDS
// round trip runs inside them; so does the kernel client's MDS lookup
// of a miss, and the size push of K/K's branch handle. The residuals:
//   - a miss on the user-level client goes back to the process, which
//     parks for the wire charge, the MDS round trip and the attribute
//     insert (4 under D, 5 under F with the FUSE reply);
//   - F/F, K/K and F/K open through a union, which starts no run, and
//     unionfs-fuse serves its branch's Close in the process (3 under
//     F/F and F/K);
//   - FP and FP/FP open and close through the page cache of a FUSE
//     mount, whose store's opens and size pushes stay blocking.
//
// A layer slipped between a transport and the client that drops the
// hand-off shows here as more parks.
func TestCachedMetadataParks(t *testing.T) {
	for _, c := range []struct {
		cfg                 Configuration
		open, miss, pushing int
	}{
		{ConfigD, 1, 4, 1}, {ConfigF, 1, 5, 1}, {ConfigFF, 8, 11, 3}, {ConfigK, 1, 1, 1},
		{ConfigKK, 5, 7, 1}, {ConfigFK, 7, 9, 3}, {ConfigFP, 8, 9, 2}, {ConfigFPFP, 31, 14, 2},
	} {
		tb := newTB(t, 4)
		tb.Cluster.ProvisionDir("/containers/c0")
		tb.Cluster.Provision("/containers/c0/g", 4<<10)
		pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
		ct, err := pool.NewContainer("c0", MountSpec{Config: c.cfg, UpperDir: "/containers/c0"})
		if err != nil {
			t.Fatal(err)
		}
		fs := ct.Mount.Default
		runOn(t, tb, ct, func(ctx vfsapi.Ctx) {
			h, err := fs.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
			if err != nil {
				t.Fatal(err)
			}
			h.Close(ctx)
			parks := func(what string, want int, op func() error) {
				before := ctx.P.Parks()
				if err := op(); err != nil {
					t.Fatalf("%v: %s: %v", c.cfg, what, err)
				}
				if got := ctx.P.Parks() - before; got != want {
					t.Errorf("%v: %s parked %d times, want %d", c.cfg, what, got, want)
				}
			}
			parks("a cached Open", c.open, func() (err error) {
				h, err = fs.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
				return err
			})
			if _, err := h.Write(ctx, 0, 64<<10); err != nil {
				t.Fatal(err)
			}
			parks("the Close of a written file", c.pushing, func() error { return h.Close(ctx) })
			parks("an Open that misses to the MDS", c.miss, func() (err error) {
				h, err = fs.Open(ctx, "/g", vfsapi.RDONLY)
				return err
			})
			h.Close(ctx)
		})
	}
}

// TestMissAndThrottleParks pins how often a 64 KiB Read that misses one
// object and a 1 MiB Write the dirty throttle holds park their process
// in each stack of Table 1, built as the experiments build it. Both
// park once under D, F, F/F, K and K/K: the client's request run goes
// on through the read-miss loop — the fetchQ wait, the wire charges,
// the object read (cluster.ReadRun), the insert and the claim — and
// through the dirty throttle's throttleQ waits, where it used to hand
// back. The parent parked 10, 11, 12, 10, 10, 12, 16 and 37 times for
// the miss and 2, 3, 4, 3, 3, 19, 3 and 3 times for the throttled write
// under D, F, F/F, K, K/K, F/K, FP and FP/FP. The residuals: F/K's
// unionfs-fuse serves a kernel handle, which starts no run, so each
// chunk parks for the kernel request and for its reply; FP and FP/FP
// read through the page cache of a FUSE mount, whose store reads in
// the process.
func TestMissAndThrottleParks(t *testing.T) {
	for _, c := range []struct {
		cfg             Configuration
		miss, throttled int
	}{
		{ConfigD, 1, 1}, {ConfigF, 1, 1}, {ConfigFF, 1, 1}, {ConfigK, 1, 1},
		{ConfigKK, 1, 1}, {ConfigFK, 3, 17}, {ConfigFP, 4, 1}, {ConfigFPFP, 23, 1},
	} {
		tb := newTB(t, 4)
		tb.Cluster.ProvisionDir("/containers/c0")
		tb.Cluster.Provision("/containers/c0/m", 4<<20)
		// A small pool, so that its dirty limit is soon reached.
		pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 64<<20)
		ct, err := pool.NewContainer("c0", MountSpec{Config: c.cfg, UpperDir: "/containers/c0"})
		if err != nil {
			t.Fatal(err)
		}
		fs := ct.Mount.Default
		throttled := map[int]bool{}
		tb.Eng.SetWaitObserver(func(proc int, kind, resource, _ string, _ int, _, _ time.Duration) {
			if kind == "waitq" && strings.HasSuffix(resource, ".throttle") {
				throttled[proc] = true
			}
		})
		runOn(t, tb, ct, func(ctx vfsapi.Ctx) {
			h, err := fs.Open(ctx, "/m", vfsapi.RDONLY)
			if err != nil {
				t.Fatal(err)
			}
			before := ctx.P.Parks()
			if n, err := h.Read(ctx, 0, 64<<10); n != 64<<10 || err != nil {
				t.Fatalf("%v: Read returned %d, %v", c.cfg, n, err)
			}
			if got := ctx.P.Parks() - before; got != c.miss {
				t.Errorf("%v: a 64 KiB Read that misses one object parked %d times, want %d", c.cfg, got, c.miss)
			}
			h.Close(ctx)
			if h, err = fs.Open(ctx, "/w", vfsapi.CREATE|vfsapi.WRONLY); err != nil {
				t.Fatal(err)
			}
			for off := int64(0); ; off += 1 << 20 {
				if off == 256<<20 {
					t.Fatalf("%v: no Write of 256 MiB was throttled", c.cfg)
				}
				before := ctx.P.Parks()
				throttled[ctx.P.ID()] = false
				if n, err := h.Write(ctx, off, 1<<20); n != 1<<20 || err != nil {
					t.Fatalf("%v: Write returned %d, %v", c.cfg, n, err)
				}
				if throttled[ctx.P.ID()] {
					if got := ctx.P.Parks() - before; got != c.throttled {
						t.Errorf("%v: a Write the dirty throttle holds parked %d times, want %d", c.cfg, got, c.throttled)
					}
					break
				}
			}
			h.Close(ctx)
		})
	}
}

// TestRenameOverExistingFile renames a synced file over a file whose
// data is still dirty and closes the replaced file's handle: the moved
// file keeps its own size, in the client's view and at the MDS, once
// write-back has run. The replaced file's flush and size push must not
// reach the file that now holds its name.
func TestRenameOverExistingFile(t *testing.T) {
	for _, cfg := range []Configuration{ConfigD, ConfigF, ConfigK, ConfigFP} {
		tb := newTB(t, 4)
		tb.Cluster.ProvisionDir("/containers/c0")
		pool := tb.NewPool("pool0", cpu.MaskOf(0, 1), 8<<30)
		ct, err := pool.NewContainer("c0", MountSpec{Config: cfg, UpperDir: "/containers/c0"})
		if err != nil {
			t.Fatal(err)
		}
		fs := ct.Mount.Default
		runOn(t, tb, ct, func(ctx vfsapi.Ctx) {
			a, err := fs.Open(ctx, "/a", vfsapi.CREATE|vfsapi.RDWR)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write(ctx, 0, 1<<20); err != nil {
				t.Fatal(err)
			}
			b, err := fs.Open(ctx, "/b", vfsapi.CREATE|vfsapi.RDWR)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Write(ctx, 0, 4<<10); err != nil {
				t.Fatal(err)
			}
			if err := b.Fsync(ctx); err != nil {
				t.Fatal(err)
			}
			if err := fs.Rename(ctx, "/b", "/a"); err != nil {
				t.Fatal(err)
			}
			if err := a.Close(ctx); err != nil {
				t.Fatal(err)
			}
			ctx.P.Sleep(10 * time.Second)
			info, err := fs.Stat(ctx, "/a")
			if err != nil || info.Size != 4<<10 {
				t.Errorf("%v: Stat(/a) = %d, %v; want the moved file's %d bytes", cfg, info.Size, err, 4<<10)
			}
			if n, err := tb.Cluster.Tree().Lookup("/containers/c0/a"); err != nil {
				t.Errorf("%v: the MDS has no /a: %v", cfg, err)
			} else if n.Size != 4<<10 {
				t.Errorf("%v: the MDS holds /a at %d bytes, want %d", cfg, n.Size, 4<<10)
			}
			b.Close(ctx)
		})
	}
}
