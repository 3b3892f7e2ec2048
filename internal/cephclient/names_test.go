package cephclient

import (
	"errors"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// The tests below pin where the user-level client's namespace path
// differs from the kernel's over the shared cacherun.Names; kern's
// names_test.go pins the other side of each.

// TestSizePushGrowsAnyway: a pushed size only grows the cached size,
// whether the MDS took it or not, and a close reports no push error.
func TestSizePushGrowsAnyway(t *testing.T) {
	r := newRig(t, Config{})
	c := r.client
	size := func() int64 { info, _, _ := c.names.Cached("/f"); return info.Size }
	r.run(t, func(ctx vfsapi.Ctx) {
		h, err := c.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		h.Close(ctx)
		for _, push := range []struct{ size, want int64 }{{4096, 4096}, {0, 4096}} {
			if err := c.names.Push(ctx, "/f", push.size); err != nil || size() != push.want {
				t.Errorf("push of %d: err %v, cached size %d, want %d", push.size, err, size(), push.want)
			}
		}
		if _, err := r.clus.Tree().Unlink("/f"); err != nil {
			t.Fatal(err)
		}
		h, err = c.Open(ctx, "/f", vfsapi.WRONLY)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ctx, 0, 8192)
		if err := h.Close(ctx); err != nil || size() != 8192 {
			t.Errorf("close whose push failed: err %v, cached size %d; want nil and 8192", err, size())
		}
	})
}

// TestCrashCheckIsCharged: a crashed client fails every namespace call
// after charging one operation's CPU.
func TestCrashCheckIsCharged(t *testing.T) {
	r := newRig(t, Config{})
	c := r.client
	r.run(t, func(ctx vfsapi.Ctx) {
		c.Crash()
		start := ctx.P.Now()
		_, errS := c.Stat(ctx, "/f")
		_, errR := c.Readdir(ctx, "/")
		errs := []error{errS, c.Mkdir(ctx, "/d"), errR, c.Unlink(ctx, "/f"), c.Rmdir(ctx, "/d"), c.Rename(ctx, "/f", "/g")}
		for _, err := range errs {
			if !errors.Is(err, ErrCrashed) {
				t.Errorf("crashed client: %v, want ErrCrashed", err)
			}
		}
		if d, want := ctx.P.Now()-start, time.Duration(len(errs))*model.Default().ClientOpCost; d != want {
			t.Errorf("crashed client's calls took %v, want one op charge each, %v", d, want)
		}
	})
}

// TestDentryHoldsClientLock: a cached Stat takes client_lock for one
// hold after the operation's CPU, and waits while another holds it.
func TestDentryHoldsClientLock(t *testing.T) {
	r := newRig(t, Config{})
	c := r.client
	params := model.Default()
	r.clus.Provision("/f", 4096)
	r.run(t, func(ctx vfsapi.Ctx) {
		c.Stat(ctx, "/f")
		start := ctx.P.Now()
		if _, err := c.Stat(ctx, "/f"); err != nil {
			t.Fatal(err)
		}
		if d, want := ctx.P.Now()-start, params.ClientOpCost+params.ClientLockHold; d != want {
			t.Errorf("cached Stat took %v, want the op charge and one hold, %v", d, want)
		}
		r.eng.Go("holder", func(p *sim.Proc) {
			c.clientLock.Lock(p)
			p.Sleep(time.Millisecond)
			c.clientLock.Unlock(p)
		})
		ctx.P.Sleep(time.Microsecond)
		start = ctx.P.Now()
		c.Stat(ctx, "/f")
		if d := ctx.P.Now() - start; d < time.Millisecond-time.Microsecond {
			t.Errorf("cached Stat took %v while client_lock was held for 1ms", d)
		}
	})
}

// TestUnlinkReadsInoAfter: Unlink reads the path's ino after the MDS
// call, under the lock that drops the entry, so a lookup that caches
// the path during the call is dropped with it.
func TestUnlinkReadsInoAfter(t *testing.T) {
	r := newRig(t, Config{})
	c := r.client
	r.clus.Provision("/f", 4096)
	th := r.cpus.NewThread(r.acct, 0)
	r.eng.Go("unlinker", func(p *sim.Proc) {
		p.Sleep(10 * time.Microsecond)
		if err := c.Unlink(vfsapi.Ctx{P: p, T: th}, "/f"); err != nil {
			t.Error(err)
		}
	})
	var looked uint64
	r.run(t, func(ctx vfsapi.Ctx) {
		c.Stat(ctx, "/f")
		_, looked, _ = c.names.Cached("/f")
		ctx.P.Sleep(10 * time.Millisecond)
	})
	if looked == 0 {
		t.Fatal("the lookup cached no file: it reached the MDS after the unlink")
	}
	if _, kept := c.names.Path(looked); kept {
		t.Errorf("the looked-up ino %d kept its path after the unlink", looked)
	}
}
