package kern

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/cpu"
	"repro/internal/disk"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/nstree"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// fakeStore records data-path traffic over an in-memory namespace.
type fakeStore struct {
	eng        *sim.Engine
	tree       *nstree.Tree
	nodes      map[uint64]*nstree.Node
	reads      []extentRec
	writes     []extentRec
	writeDelay time.Duration
	readDelay  time.Duration
}

type extentRec struct {
	ino    uint64
	off, n int64
}

func newFakeStore(eng *sim.Engine) *fakeStore {
	return &fakeStore{eng: eng, tree: nstree.New(), nodes: map[uint64]*nstree.Node{}}
}

func (s *fakeStore) Lookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	n, err := s.tree.Lookup(path)
	if err != nil {
		return vfsapi.FileInfo{}, 0, err
	}
	s.nodes[n.Ino] = n
	return n.Info(), n.Ino, nil
}

func (s *fakeStore) Create(ctx vfsapi.Ctx, path string) (uint64, error) {
	n, err := s.tree.Create(path, s.eng.Now())
	if err != nil {
		return 0, err
	}
	s.nodes[n.Ino] = n
	return n.Ino, nil
}

func (s *fakeStore) Mkdir(ctx vfsapi.Ctx, path string) error {
	_, err := s.tree.Mkdir(path, 0)
	return err
}

func (s *fakeStore) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	return s.tree.Readdir(path)
}

func (s *fakeStore) Unlink(ctx vfsapi.Ctx, path string) (uint64, error) {
	n, err := s.tree.Unlink(path)
	if err != nil {
		return 0, err
	}
	return n.Ino, nil
}

func (s *fakeStore) Rmdir(ctx vfsapi.Ctx, path string) error { return s.tree.Rmdir(path) }

func (s *fakeStore) Rename(ctx vfsapi.Ctx, o, n string) (uint64, error) {
	target, _ := s.tree.Lookup(n)
	if err := s.tree.Rename(o, n, 0); err != nil || target == nil || o == n {
		return 0, err
	}
	return target.Ino, nil
}

func (s *fakeStore) SetSize(ctx vfsapi.Ctx, ino uint64, size int64) error {
	n, ok := s.nodes[ino]
	if !ok {
		return vfsapi.ErrNotExist
	}
	if size > n.Size || size == 0 {
		n.Size = size
	}
	return nil
}

func (s *fakeStore) ReadData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	s.reads = append(s.reads, extentRec{ino, off, n})
	if s.readDelay > 0 {
		ctx.P.Sleep(s.readDelay)
	}
}

func (s *fakeStore) WriteData(ctx vfsapi.Ctx, ino uint64, off, n int64) {
	s.writes = append(s.writes, extentRec{ino, off, n})
	if s.writeDelay > 0 {
		ctx.P.Sleep(s.writeDelay)
	}
}

func (s *fakeStore) totalWritten() int64 {
	var t int64
	for _, w := range s.writes {
		t += w.n
	}
	return t
}

func (s *fakeStore) totalRead() int64 {
	var t int64
	for _, r := range s.reads {
		t += r.n
	}
	return t
}

type testRig struct {
	eng   *sim.Engine
	cpus  *cpu.CPU
	kern  *Kernel
	store *fakeStore
	mount *Mount
	acct  *cpu.Account
}

func newRig(t *testing.T, cfg MountConfig) *testRig {
	t.Helper()
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 4)
	k := New(eng, cpus, params)
	store := newFakeStore(eng)
	if cfg.Name == "" {
		cfg.Name = "test"
	}
	m := k.Mount(store, cfg)
	return &testRig{eng: eng, cpus: cpus, kern: k, store: store, mount: m, acct: cpu.NewAccount("app")}
}

func (r *testRig) ctx(p *sim.Proc) vfsapi.Ctx {
	return vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}
}

// run executes fn as a proc and drains the engine (stopping flushers).
func (r *testRig) run(t *testing.T, fn func(ctx vfsapi.Ctx)) {
	t.Helper()
	r.eng.Go("test", func(p *sim.Proc) {
		fn(r.ctx(p))
		r.kern.Stop()
	})
	r.eng.Run()
	if r.eng.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", r.eng.LiveProcs())
	}
}

func TestWriteLandsInCacheThenFlushes(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write(ctx, 0, 1<<20); err != nil {
			t.Fatal(err)
		}
		if got := r.store.totalWritten(); got != 0 {
			t.Fatalf("write reached store synchronously: %d bytes", got)
		}
		if r.mount.DirtyBytes() != 1<<20 {
			t.Fatalf("dirty = %d", r.mount.DirtyBytes())
		}
		// Wait past the expire age + writeback interval: flushers must
		// have drained the file.
		ctx.P.Sleep(7 * time.Second)
		if got := r.store.totalWritten(); got != 1<<20 {
			t.Fatalf("flushed %d bytes, want 1MB", got)
		}
		if r.mount.DirtyBytes() != 0 {
			t.Fatalf("dirty after flush = %d", r.mount.DirtyBytes())
		}
		h.Close(ctx)
	})
	// Flushed size must have reached the store's namespace.
	n, _ := r.store.tree.Lookup("/f")
	if n.Size != 1<<20 {
		t.Fatalf("store size = %d", n.Size)
	}
}

func TestReadMissThenHit(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.store.tree.MkdirAll("/", 0)
	n, _ := r.store.tree.Create("/data", 0)
	n.Size = 2 << 20
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := r.mount.Open(ctx, "/data", vfsapi.RDONLY)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := h.Read(ctx, 0, 1<<20); got != 1<<20 {
			t.Fatalf("read %d", got)
		}
		missTraffic := r.store.totalRead()
		if missTraffic < 1<<20 {
			t.Fatalf("miss fetched %d, want >= 1MB", missTraffic)
		}
		if got, _ := h.Read(ctx, 0, 1<<20); got != 1<<20 {
			t.Fatalf("reread %d", got)
		}
		if r.store.totalRead() != missTraffic {
			t.Fatal("cache hit still fetched from store")
		}
		h.Close(ctx)
	})
}

func TestSequentialReadTriggersReadahead(t *testing.T) {
	r := newRig(t, MountConfig{})
	n, _ := r.store.tree.Create("/seq", 0)
	n.Size = 8 << 20
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/seq", vfsapi.RDONLY)
		h.Read(ctx, 0, 64<<10)
		h.Read(ctx, 64<<10, 64<<10) // sequential: window grows
		fetched := r.store.totalRead()
		if fetched <= 128<<10 {
			t.Fatalf("no readahead: fetched only %d", fetched)
		}
		h.Close(ctx)
	})
}

func TestReadPastEOFAndShortRead(t *testing.T) {
	r := newRig(t, MountConfig{})
	n, _ := r.store.tree.Create("/small", 0)
	n.Size = 1000
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/small", vfsapi.RDONLY)
		if got, _ := h.Read(ctx, 2000, 100); got != 0 {
			t.Fatalf("read past EOF returned %d", got)
		}
		if got, _ := h.Read(ctx, 500, 1000); got != 500 {
			t.Fatalf("short read returned %d, want 500", got)
		}
		h.Close(ctx)
	})
}

func TestDirtyThrottleBlocksWriters(t *testing.T) {
	// Tiny dirty limit and a slow store: the writer must accumulate
	// I/O-wait time while flushers drain.
	r := newRig(t, MountConfig{MaxDirty: 1 << 20})
	r.store.writeDelay = 5 * time.Millisecond
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 8; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
	})
	if r.acct.IOWait() == 0 {
		t.Fatal("writer above dirty limit accumulated no I/O wait")
	}
}

func TestMemoryLimitEvictsCleanKeepsDirty(t *testing.T) {
	r := newRig(t, MountConfig{MemLimit: 4 << 20, MaxDirty: 64 << 20})
	n, _ := r.store.tree.Create("/big", 0)
	n.Size = 16 << 20
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/big", vfsapi.RDONLY)
		for off := int64(0); off < 16<<20; off += 1 << 20 {
			h.Read(ctx, off, 1<<20)
		}
		if cur := r.mount.Meter().Current(); cur > 4<<20 {
			t.Fatalf("cache %d exceeds 4MB limit", cur)
		}
		h.Close(ctx)

		// Dirty data may not be evicted even under pressure.
		hw, _ := r.mount.Open(ctx, "/w", vfsapi.CREATE|vfsapi.WRONLY)
		hw.Write(ctx, 0, 2<<20)
		h2, _ := r.mount.Open(ctx, "/big", vfsapi.RDONLY)
		for off := int64(0); off < 16<<20; off += 1 << 20 {
			h2.Read(ctx, off, 1<<20)
		}
		if r.mount.DirtyBytes() != 2<<20 {
			t.Fatalf("dirty bytes evicted: %d", r.mount.DirtyBytes())
		}
		h2.Close(ctx)
		hw.Close(ctx)
	})
}

func TestFsyncDrainsSynchronously(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 3<<20)
		if err := h.Fsync(ctx); err != nil {
			t.Fatal(err)
		}
		if got := r.store.totalWritten(); got != 3<<20 {
			t.Fatalf("fsync flushed %d", got)
		}
		if r.mount.DirtyBytes() != 0 {
			t.Fatalf("dirty after fsync = %d", r.mount.DirtyBytes())
		}
		h.Close(ctx)
	})
}

func TestUnlinkDropsDirtyWithoutStoreWrites(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/tmp", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		h.Close(ctx)
		if err := r.mount.Unlink(ctx, "/tmp"); err != nil {
			t.Fatal(err)
		}
		ctx.P.Sleep(7 * time.Second) // flusher pass
		if got := r.store.totalWritten(); got != 0 {
			t.Fatalf("unlinked file still flushed %d bytes", got)
		}
		if r.mount.Meter().Current() != 0 {
			t.Fatalf("cache not freed: %d", r.mount.Meter().Current())
		}
	})
}

func TestTruncateDropsCacheAndSize(t *testing.T) {
	r := newRig(t, MountConfig{})
	n, _ := r.store.tree.Create("/t", 0)
	n.Size = 1 << 20
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/t", vfsapi.RDONLY)
		h.Read(ctx, 0, 1<<20)
		h.Close(ctx)
		h2, _ := r.mount.Open(ctx, "/t", vfsapi.WRONLY|vfsapi.TRUNC)
		if h2.Size() != 0 {
			t.Fatalf("size after trunc = %d", h2.Size())
		}
		h2.Close(ctx)
	})
	if n.Size != 0 {
		t.Fatalf("store size after trunc = %d", n.Size)
	}
}

func TestOpenErrors(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		if _, err := r.mount.Open(ctx, "/missing", vfsapi.RDONLY); !errors.Is(err, vfsapi.ErrNotExist) {
			t.Fatalf("open missing: %v", err)
		}
		r.mount.Mkdir(ctx, "/d")
		if _, err := r.mount.Open(ctx, "/d", vfsapi.RDONLY); !errors.Is(err, vfsapi.ErrIsDir) {
			t.Fatalf("open dir: %v", err)
		}
		h, _ := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Close(ctx)
		if _, err := h.Write(ctx, 0, 10); !errors.Is(err, vfsapi.ErrClosed) {
			t.Fatalf("write closed: %v", err)
		}
		hr, _ := r.mount.Open(ctx, "/f", vfsapi.RDONLY)
		if _, err := hr.Write(ctx, 0, 10); !errors.Is(err, vfsapi.ErrReadOnly) {
			t.Fatalf("write rdonly: %v", err)
		}
		hr.Close(ctx)
	})
}

func TestSyscallsChargeModeSwitches(t *testing.T) {
	r := newRig(t, MountConfig{})
	sys := NewSyscalls(r.kern, r.mount)
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := sys.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ctx, 0, 4096)
		h.Close(ctx)
	})
	// Open + write + close = 3 syscalls = 6 mode switches.
	if got := r.acct.ModeSwitches(); got != 6 {
		t.Fatalf("mode switches = %d, want 6", got)
	}
}

func TestFlusherRunsOnRoamingCores(t *testing.T) {
	// With the app pinned to cores {0,1}, flush work must still appear
	// on cores {2,3} via the roaming flusher threads.
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 4)
	k := New(eng, cpus, params)
	store := newFakeStore(eng)
	m := k.Mount(store, MountConfig{Name: "t", MaxDirty: 1 << 20})
	store.writeDelay = time.Millisecond
	acct := cpu.NewAccount("app")
	// Keep the pool's own cores saturated so flush work must roam.
	for i := 0; i < 2; i++ {
		eng.Go("spinner", func(p *sim.Proc) {
			th := cpus.NewThread(acct, cpu.MaskOf(0, 1))
			th.Exec(p, cpu.User, 5*time.Second)
		})
	}
	eng.Go("writer", func(p *sim.Proc) {
		th := cpus.NewThread(acct, cpu.MaskOf(0, 1))
		ctx := vfsapi.Ctx{P: p, T: th}
		h, _ := m.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		for i := int64(0); i < 64; i++ {
			h.Write(ctx, i<<20, 1<<20)
		}
		h.Close(ctx)
		k.Stop()
	})
	eng.Run()
	util := cpus.UtilSnapshot()
	if util[2]+util[3] == 0 {
		t.Fatal("flushers never used the foreign pool's cores")
	}
	if k.Account().Time(cpu.Kernel) == 0 {
		t.Fatal("kernel account recorded no flusher CPU")
	}
}

func TestAppendExtends(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/log", vfsapi.CREATE|vfsapi.APPEND)
		off1, _ := h.Append(ctx, 100)
		off2, _ := h.Append(ctx, 100)
		if off1 != 0 || off2 != 100 || h.Size() != 200 {
			t.Fatalf("appends at %d,%d size %d", off1, off2, h.Size())
		}
		h.Close(ctx)
	})
}

func TestLockStatsAggregation(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		h.Close(ctx)
	})
	s := r.kern.LockStats()
	if s.Acquisitions == 0 {
		t.Fatal("no kernel lock acquisitions recorded")
	}
	// The aggregate is the sum of the three classes the harvest reports.
	var sum sim.LockStats
	for _, c := range r.kern.LockBreakdown() {
		sum.Add(c)
	}
	if sum != s {
		t.Fatalf("LockStats %+v, breakdown sums to %+v", s, sum)
	}
	r.kern.ResetLockStats()
	if r.kern.LockStats().Acquisitions != 0 {
		t.Fatal("reset did not clear lock stats")
	}
}

func TestLocalStoreJournalAndData(t *testing.T) {
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 2)
	arr := disk.NewArray(eng, "raid0", 4, params.DiskSeqBytesPerSec, params.DiskSeekTime, params.DiskStripeUnit)
	ls := NewLocalStore(eng, arr)
	acct := cpu.NewAccount("a")
	eng.Go("t", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(acct, 0)}
		ino, err := ls.Create(ctx, "/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		ls.WriteData(ctx, ino, 0, 1<<20)
		ls.SetSize(ctx, ino, 1<<20)
		info, _, err := ls.Lookup(ctx, "/f")
		if err != nil || info.Size != 1<<20 {
			t.Errorf("lookup: %+v %v", info, err)
		}
		ls.ReadData(ctx, ino, 0, 1<<20)
	})
	eng.Run()
	var written uint64
	for _, d := range arr.Disks() {
		written += d.BytesWritten()
	}
	// 1MB data + journal records (create + setsize).
	if written < 1<<20+2*journalRecordBytes {
		t.Fatalf("disk writes = %d", written)
	}
}

func TestCephStoreAttrCache(t *testing.T) {
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 2)
	clus := cluster.New(eng, params, 6)
	k := New(eng, cpus, params)
	cs := NewCephStore(k, clus)
	clus.Provision("/data/f", 4096)
	acct := cpu.NewAccount("a")
	eng.Go("t", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(acct, 0)}
		if _, _, err := cs.Lookup(ctx, "/data/f"); err != nil {
			t.Errorf("lookup: %v", err)
		}
		before := clus.MDSOps()
		cs.Lookup(ctx, "/data/f")
		cs.Lookup(ctx, "/data/f")
		if clus.MDSOps() != before {
			t.Error("cached lookups still hit the MDS")
		}
		k.Stop()
	})
	eng.Run()
}

// TestStoreMetadataPaths drives both backends' namespace operations:
// Readdir lists what Mkdir and Create made, Rmdir of a non-empty
// directory fails, and a rename over an existing file returns the
// replaced ino and drops the store's record of it. A crashed CephStore
// fails them all with ErrCrashed.
func TestStoreMetadataPaths(t *testing.T) {
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 2)
	k := New(eng, cpus, params)
	ls := NewLocalStore(eng, disk.NewArray(eng, "raid0", 4, params.DiskSeqBytesPerSec, params.DiskSeekTime, params.DiskStripeUnit))
	cs := NewCephStore(k, cluster.New(eng, params, 6))
	acct := cpu.NewAccount("a")
	eng.Go("t", func(p *sim.Proc) {
		defer k.Stop()
		ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(acct, 0)}
		for _, tc := range []struct {
			name    string
			store   Store
			dropped func(ino uint64) bool // the store holds no record of ino
		}{
			{"local", ls, func(ino uint64) bool { return ls.nodes[ino] == nil }},
			{"ceph", cs, func(ino uint64) bool { _, ok := cs.Path(ino); return !ok }},
		} {
			s := tc.store
			errD, errSub := s.Mkdir(ctx, "/d"), s.Mkdir(ctx, "/d/sub")
			inoA, errA := s.Create(ctx, "/d/a")
			inoB, errB := s.Create(ctx, "/d/b")
			if err := errors.Join(errD, errSub, errA, errB); err != nil {
				t.Errorf("%s: mkdir and create: %v", tc.name, err)
				return
			}
			ents, err := s.Readdir(ctx, "/d")
			if want := "[{a false} {b false} {sub true}]"; err != nil || fmt.Sprint(ents) != want {
				t.Errorf("%s: readdir = %v %v, want %s", tc.name, ents, err, want)
			}
			if err := s.Rmdir(ctx, "/d"); !errors.Is(err, vfsapi.ErrNotEmpty) {
				t.Errorf("%s: rmdir of a non-empty directory: %v, want ErrNotEmpty", tc.name, err)
			}
			replaced, err := s.Rename(ctx, "/d/a", "/d/b")
			if err != nil || replaced != inoB {
				t.Errorf("%s: rename over /d/b = %d %v, want its ino %d", tc.name, replaced, err, inoB)
			}
			if !tc.dropped(inoB) || tc.dropped(inoA) {
				t.Errorf("%s: after rename: replaced ino dropped %v, moved ino dropped %v", tc.name, tc.dropped(inoB), tc.dropped(inoA))
			}
			if _, ino, err := s.Lookup(ctx, "/d/b"); err != nil || ino != inoA {
				t.Errorf("%s: /d/b after rename = ino %d %v, want %d", tc.name, ino, err, inoA)
			}
			if err := s.Rmdir(ctx, "/d/sub"); err != nil {
				t.Errorf("%s: rmdir of an empty directory: %v", tc.name, err)
			}
			if ents, err := s.Readdir(ctx, "/d"); err != nil || fmt.Sprint(ents) != "[{b false}]" {
				t.Errorf("%s: readdir after rename and rmdir = %v %v", tc.name, ents, err)
			}
		}

		cs.CrashStore()
		if _, err := cs.Readdir(ctx, "/d"); !errors.Is(err, vfsapi.ErrCrashed) {
			t.Errorf("crashed readdir: %v", err)
		}
		if err := cs.Rmdir(ctx, "/d"); !errors.Is(err, vfsapi.ErrCrashed) {
			t.Errorf("crashed rmdir: %v", err)
		}
		if err := cs.Mkdir(ctx, "/e"); !errors.Is(err, vfsapi.ErrCrashed) {
			t.Errorf("crashed mkdir: %v", err)
		}
		if _, err := cs.Rename(ctx, "/d/b", "/d/c"); !errors.Is(err, vfsapi.ErrCrashed) {
			t.Errorf("crashed rename: %v", err)
		}
	})
	eng.Run()
}

func TestSyncAllDrainsEverything(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.run(t, func(ctx vfsapi.Ctx) {
		for i := 0; i < 3; i++ {
			h, _ := r.mount.Open(ctx, fmt.Sprintf("/f%d", i), vfsapi.CREATE|vfsapi.WRONLY)
			h.Write(ctx, 0, 1<<20)
			h.Close(ctx)
		}
		if r.mount.DirtyBytes() != 3<<20 {
			t.Fatalf("dirty = %d", r.mount.DirtyBytes())
		}
		r.mount.SyncAll(ctx)
		if r.mount.DirtyBytes() != 0 {
			t.Fatalf("dirty after SyncAll = %d", r.mount.DirtyBytes())
		}
		if got := r.store.totalWritten(); got != 3<<20 {
			t.Fatalf("store received %d", got)
		}
	})
}

// TestSyncAllStopsAtCrash: a SyncAll parked in a store write when the
// mount crashes and restarts must not subtract its dead batch, or drain
// anything, from the restarted incarnation's dirty total.
func TestSyncAllStopsAtCrash(t *testing.T) {
	r := newRig(t, MountConfig{})
	r.store.writeDelay = 50 * time.Millisecond
	syncing, synced := false, false
	r.eng.Go("crasher", func(p *sim.Proc) {
		for !syncing {
			p.Sleep(100 * time.Microsecond)
		}
		p.Sleep(5 * time.Millisecond)
		ctx := r.ctx(p)
		if len(r.store.writes) != 1 || synced {
			t.Errorf("SyncAll not parked in its store write: %d writes, returned %v", len(r.store.writes), synced)
		}
		r.mount.Crash()
		if err := r.mount.Restart(ctx); err != nil {
			t.Error(err)
		}
		h, err := r.mount.Open(ctx, "/b", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Error(err)
			return
		}
		h.Write(ctx, 0, 4096)
	})
	r.run(t, func(ctx vfsapi.Ctx) {
		h, _ := r.mount.Open(ctx, "/a", vfsapi.CREATE|vfsapi.WRONLY)
		h.Write(ctx, 0, 1<<20)
		syncing = true
		r.mount.SyncAll(ctx)
		synced = true
		sum, listed, counter := r.mount.cache.DirtyAudit()
		if counter != 4096 || sum != counter || listed != 1 {
			t.Errorf("after restart: per-file dirty sum %d, %d files listed, counter %d; want 4096, 1, 4096", sum, listed, counter)
		}
	})
}

// TestFsyncUnlinkedOpenFile: a file unlinked while open still takes
// writes; its fsync drops them, as a flusher would, and pushes neither
// a size nor a sync to the inode the store has dropped.
func TestFsyncUnlinkedOpenFile(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(*sim.Engine, *model.Params) Store
	}{
		{"local", func(eng *sim.Engine, params *model.Params) Store {
			return NewLocalStore(eng, disk.NewArray(eng, "raid0", 4, params.DiskSeqBytesPerSec, params.DiskSeekTime, params.DiskStripeUnit))
		}},
		{"fsstore", func(*sim.Engine, *model.Params) Store { return NewFSStore(memfs.New()) }},
	} {
		eng := sim.NewEngine()
		params := model.Default()
		cpus := cpu.New(eng, params, 2)
		k := New(eng, cpus, params)
		m := k.Mount(tc.store(eng, params), MountConfig{Name: tc.name})
		acct := cpu.NewAccount("a")
		eng.Go("t", func(p *sim.Proc) {
			defer k.Stop()
			ctx := vfsapi.Ctx{P: p, T: cpus.NewThread(acct, 0)}
			h, err := m.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
			if err != nil {
				t.Errorf("%s: open: %v", tc.name, err)
				return
			}
			h.Write(ctx, 0, 64<<10)
			if err := m.Unlink(ctx, "/f"); err != nil {
				t.Errorf("%s: unlink: %v", tc.name, err)
				return
			}
			h.Write(ctx, 0, 64<<10)
			if err := h.Fsync(ctx); err != nil {
				t.Errorf("%s: fsync of an unlinked open file: %v", tc.name, err)
			}
			if sum, listed, counter := m.cache.DirtyAudit(); sum != 0 || listed != 0 || counter != 0 {
				t.Errorf("%s: after fsync: per-file dirty sum %d, %d files listed, counter %d", tc.name, sum, listed, counter)
			}
		})
		eng.Run()
	}
}

// TestDirtyAuditAcrossLifecycle recomputes the page cache's dirty
// accounting after every kind of step that moves it: the per-file dirty
// sum must equal the counter, the dirty list must be empty exactly when
// the counter is zero, and the counter must read the bytes the steps
// left dirty.
func TestDirtyAuditAcrossLifecycle(t *testing.T) {
	r := newRig(t, MountConfig{})
	audit := func(step string, want int64) {
		t.Helper()
		sum, listed, counter := r.mount.cache.DirtyAudit()
		if sum != counter || (listed == 0) != (counter == 0) || counter != want {
			t.Errorf("%s: per-file dirty sum %d, %d files listed, counter %d (want %d)", step, sum, listed, counter, want)
		}
	}
	r.run(t, func(ctx vfsapi.Ctx) {
		open := func(path string, flags vfsapi.OpenFlag) vfsapi.Handle {
			h, err := r.mount.Open(ctx, path, flags)
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

		g := open("/g", rw)
		g.Write(ctx, 0, 1<<20)
		if err := r.mount.Unlink(ctx, "/g"); err != nil {
			t.Fatal(err)
		}
		audit("unlink open dirty file", 5<<20)
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
		ctx.P.Sleep(r.kern.params.DirtyExpire + 2*r.kern.params.WritebackInterval)
		audit("flusher", 0)

		d.Write(ctx, 0, 2<<20)
		audit("before crash", 2<<20)
		r.mount.Crash()
		audit("crash", 0)
		if err := r.mount.Restart(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Write(ctx, 0, 1<<20); err == nil {
			t.Fatal("pre-crash handle accepted a write")
		}
		audit("stale write", 0)
		e := open("/e", rw)
		e.Write(ctx, 0, 1<<20)
		audit("write after restart", 1<<20)
		e.Close(ctx)
	})
}
