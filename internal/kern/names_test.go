package kern

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

// The tests below pin where the kernel's namespace path differs from
// the user-level client's over the shared cacherun.Names; cephclient's
// names_test.go pins the other side of each.

// cephRig is a kernel Ceph client store on a 2-core host.
type cephRig struct {
	eng    *sim.Engine
	params *model.Params
	cpus   *cpu.CPU
	clus   *cluster.Cluster
	kern   *Kernel
	store  *CephStore
}

func newCephRig() *cephRig {
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 2)
	clus := cluster.New(eng, params, 6)
	k := New(eng, cpus, params)
	return &cephRig{eng: eng, params: params, cpus: cpus, clus: clus, kern: k, store: NewCephStore(k, clus)}
}

// goAt starts fn after delay in a process of its own thread.
func (r *cephRig) goAt(delay time.Duration, fn func(ctx vfsapi.Ctx)) {
	th := r.cpus.NewThread(cpu.NewAccount("a"), 0)
	r.eng.Go("t", func(p *sim.Proc) {
		p.Sleep(delay)
		fn(vfsapi.Ctx{P: p, T: th})
	})
}

// run runs the processes for a simulated second, then stops the
// kernel's flushers.
func (r *cephRig) run() {
	r.eng.RunUntil(time.Second)
	r.kern.Stop()
	r.eng.Run()
}

// TestKernSizePushTakesSuccessOnly: a size the MDS took grows the
// cached size or zeroes it; a push the MDS failed leaves it and
// returns the error.
func TestKernSizePushTakesSuccessOnly(t *testing.T) {
	r := newCephRig()
	s := r.store
	size := func() int64 { info, _, _ := s.Cached("/f"); return info.Size }
	r.goAt(0, func(ctx vfsapi.Ctx) {
		ino, err := s.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []int64{4096, 0, 4096} {
			if err := s.SetSize(ctx, ino, want); err != nil || size() != want {
				t.Errorf("push of %d: err %v, cached size %d", want, err, size())
			}
		}
		if _, err := r.clus.Tree().Unlink("/f"); err != nil {
			t.Fatal(err)
		}
		if err := s.SetSize(ctx, ino, 8192); !errors.Is(err, vfsapi.ErrNotExist) || size() != 4096 {
			t.Errorf("failed push: err %v, cached size %d; want ErrNotExist and 4096", err, size())
		}
	})
	r.run()
}

// TestKernCrashCheckIsFree: a crashed store fails every namespace call
// at no CPU cost; the mount's own crash check charges the VFS work.
func TestKernCrashCheckIsFree(t *testing.T) {
	r := newCephRig()
	s := r.store
	r.goAt(0, func(ctx vfsapi.Ctx) {
		ino, _ := s.Create(ctx, "/f")
		s.CrashStore()
		start := ctx.P.Now()
		_, _, errL := s.Lookup(ctx, "/f")
		_, errC := s.Create(ctx, "/g")
		_, errR := s.Readdir(ctx, "/")
		_, errU := s.Unlink(ctx, "/f")
		_, errN := s.Rename(ctx, "/f", "/g")
		for _, err := range []error{errL, errC, s.Mkdir(ctx, "/d"), errR, errU, s.Rmdir(ctx, "/d"), errN, s.SetSize(ctx, ino, 1)} {
			if !errors.Is(err, vfsapi.ErrCrashed) {
				t.Errorf("crashed store: %v, want ErrCrashed", err)
			}
		}
		if d := ctx.P.Now() - start; d != 0 {
			t.Errorf("crashed store's calls took %v, want none", d)
		}
	})
	r.run()
}

// TestKernDentryTakesNoLock: a cached lookup costs the operation's CPU
// and nothing else.
func TestKernDentryTakesNoLock(t *testing.T) {
	r := newCephRig()
	s := r.store
	r.clus.Provision("/f", 4096)
	r.goAt(0, func(ctx vfsapi.Ctx) {
		s.Lookup(ctx, "/f")
		start := ctx.P.Now()
		if _, _, err := s.Lookup(ctx, "/f"); err != nil {
			t.Fatal(err)
		}
		if d := ctx.P.Now() - start; d != r.params.KernelClientOpCost {
			t.Errorf("cached lookup took %v, want the op charge %v", d, r.params.KernelClientOpCost)
		}
	})
	r.run()
}

// TestKernUnlinkReadsInoFirst: Unlink reads the path's ino before the
// MDS call, so a lookup that caches the path during the call goes
// unseen: Unlink returns no ino and the looked-up ino keeps its path
// (see ROADMAP item 3).
func TestKernUnlinkReadsInoFirst(t *testing.T) {
	r := newCephRig()
	s := r.store
	r.clus.Provision("/f", 4096)
	var looked, unlinked uint64
	r.goAt(0, func(ctx vfsapi.Ctx) {
		_, looked, _ = s.Lookup(ctx, "/f")
	})
	r.goAt(10*time.Microsecond, func(ctx vfsapi.Ctx) {
		var err error
		if unlinked, err = s.Unlink(ctx, "/f"); err != nil {
			t.Error(err)
		}
	})
	r.run()
	if looked == 0 {
		t.Fatal("the lookup found no file: it reached the MDS after the unlink")
	}
	if _, kept := s.Path(looked); unlinked != 0 || !kept {
		t.Errorf("Unlink returned ino %d, looked-up ino %d kept its path: %v; want 0 and true", unlinked, looked, kept)
	}
}
