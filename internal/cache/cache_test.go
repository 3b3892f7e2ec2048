package cache

import (
	"testing"

	"repro/internal/extent"
	"repro/internal/memacct"
)

func newLedger(limit int64) *Cache[struct{}] {
	return New[struct{}](memacct.NewMeter("test"), limit)
}

func TestEvictTakesColdestCleanRangesDownToWatermark(t *testing.T) {
	c := newLedger(1600) // watermark 1500
	a, _ := c.File(1, 0)
	b, _ := c.File(2, 0)
	f3, _ := c.File(3, 0)
	for _, f := range []*File[struct{}]{a, b, f3} {
		if got := c.Insert(f, 0, 600); got != 600 {
			t.Fatalf("insert added %d, want 600", got)
		}
	}
	c.MarkDirty(a, 0, 100, 0)
	c.Touch(a) // LRU, coldest first: b, f3, a
	if !c.Over() {
		t.Fatal("1800 resident bytes not over a 1600 limit")
	}
	if freed := c.Evict(); freed != 600 || b.Cached.Len() != 0 || f3.Cached.Len() != 600 || a.Cached.Len() != 600 {
		t.Fatalf("evict freed %d, left b=%d f3=%d a=%d; want only b's 600 gone", freed, b.Cached.Len(), f3.Cached.Len(), a.Cached.Len())
	}
	if c.lru.Len() != 2 || c.Meter.Current() != 1200 {
		t.Fatalf("after evict: %d files in LRU, meter %d; want 2, 1200", c.lru.Len(), c.Meter.Current())
	}

	c.Limit = 320 // watermark 300: everything clean must go
	if freed := c.Evict(); freed != 1100 {
		t.Fatalf("second evict freed %d, want 1100", freed)
	}
	if a.Cached.Len() != 100 || !a.Cached.Contains(0, 100) || c.lru.Len() != 1 || c.Meter.Current() != 100 {
		t.Fatalf("dirty range not kept resident: a=%d, %d files in LRU, meter %d", a.Cached.Len(), c.lru.Len(), c.Meter.Current())
	}
}

func TestDirtyListIsFIFOWithOldestDirty(t *testing.T) {
	c := newLedger(1 << 30)
	a, _ := c.File(1, 0)
	b, _ := c.File(2, 0)
	if got := c.MarkDirty(a, 0, 100, 10); got != 100 {
		t.Fatalf("MarkDirty returned %d, want 100", got)
	}
	c.MarkDirty(b, 0, 50, 20)
	if got := c.MarkDirty(a, 50, 100, 30); got != 50 {
		t.Fatalf("overlapping MarkDirty returned %d, want 50", got)
	}
	if c.DirtyBytes != 200 || c.OldestDirty != 10 {
		t.Fatalf("DirtyBytes %d, OldestDirty %v; want 200, 10", c.DirtyBytes, c.OldestDirty)
	}
	if f := c.NextDirty(); f != a {
		t.Fatalf("NextDirty picked ino %d, want the first dirtied", f.Ino)
	}
	c.Unlist(a)
	if f := c.NextDirty(); f != b || c.OldestDirty != 20 {
		t.Fatalf("after unlisting a: NextDirty ino %d, OldestDirty %v; want b, 20", f.Ino, c.OldestDirty)
	}
	c.MarkDirty(a, 0, 10, 40) // a's dirty set is unchanged: no relisting
	if _, listed, _ := c.DirtyAudit(); listed != 1 {
		t.Fatalf("%d files listed, want 1", listed)
	}
}

func TestNextDirtySkipsFlushingAndUnlistsClean(t *testing.T) {
	c := newLedger(1 << 30)
	a, _ := c.File(1, 0)
	b, _ := c.File(2, 0)
	d, _ := c.File(3, 0)
	for _, f := range []*File[struct{}]{a, b, d} {
		c.MarkDirty(f, 0, 100, 0)
	}
	a.Flushing = true
	a.Dirty.PopFirst(100) // a flusher took all of a's batch
	b.Dirty.PopFirst(100) // b was written back
	if f := c.NextDirty(); f != d {
		t.Fatalf("NextDirty picked ino %d, want 3", f.Ino)
	}
	if c.dirty[0] != a || c.dirty[1] != d || len(c.dirty) != 2 {
		t.Fatal("want clean b unlisted and flushing a kept")
	}
	d.Flushing = true
	if f := c.NextDirty(); f != nil {
		t.Fatalf("NextDirty picked ino %d with every dirty file flushing", f.Ino)
	}
	a.Flushing = false
	c.NextDirty()
	if len(c.dirty) != 1 || c.dirty[0] != d {
		t.Fatal("clean a not unlisted once its flusher let go")
	}
}

func TestStaleEntriesAreLeftAlone(t *testing.T) {
	c := newLedger(1 << 30)
	f, created := c.File(1, 0)
	if !created {
		t.Fatal("first File call did not create")
	}
	if again, created := c.File(1, 0); again != f || created {
		t.Fatal("second File call did not return the entry")
	}
	c.Insert(f, 0, 100)
	c.MarkDirty(f, 0, 100, 0)
	c.Crash(false)
	if !c.Stale(f) || c.Meter.Current() != 0 || c.DirtyBytes != 0 {
		t.Fatalf("after crash: stale %v, meter %d, dirty %d", c.Stale(f), c.Meter.Current(), c.DirtyBytes)
	}
	if f.Cached.Len() != 100 || f.Dirty.Len() != 100 {
		t.Fatal("crash without wipe emptied a dead entry's ranges")
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("crash kept the file table")
	}
	c.Touch(f)
	if got := c.Insert(f, 100, 100); got != 0 {
		t.Fatalf("stale Insert added %d", got)
	}
	if got := c.MarkDirty(f, 100, 100, 0); got != 0 {
		t.Fatalf("stale MarkDirty added %d", got)
	}
	if c.lru.Len() != 0 || len(c.dirty) != 0 || c.Meter.Current() != 0 || f.Cached.Len() != 100 {
		t.Fatal("a stale entry reached the new incarnation's ledger")
	}
	g, _ := c.File(1, 0)
	if c.Stale(g) || g == f {
		t.Fatal("File after a crash did not make a current entry")
	}

	c.Insert(g, 0, 100)
	c.MarkDirty(g, 0, 100, 0)
	g.Fetching.Insert(100, 100)
	c.Crash(true)
	if g.Cached.Len() != 0 || g.Dirty.Len() != 0 || g.Fetching.Len() != 0 {
		t.Fatal("crash with wipe left a dead entry's ranges")
	}
}

func TestClaim(t *testing.T) {
	var f File[struct{}]
	f.Cached.Insert(0, 100)
	if g, wait := f.Claim(0, 300); wait || g != (extent.Extent{Off: 100, Len: 200}) || !f.Fetching.Contains(100, 200) {
		t.Fatalf("Claim = %v wait=%v; want the gap [100,300) claimed", g, wait)
	}
	if g, wait := f.Claim(50, 100); !wait || g.Len != 0 {
		t.Fatalf("Claim over an in-flight range = %v wait=%v; want wait", g, wait)
	}
	if g, wait := f.Claim(0, 100); wait || g.Len != 0 {
		t.Fatalf("Claim of a resident range = %v wait=%v; want zero", g, wait)
	}
	f.Cached.Insert(100, 200)
	f.Fetching.Remove(100, 200)
	if g, wait := f.Claim(0, 300); wait || g.Len != 0 {
		t.Fatalf("Claim after the fetch = %v wait=%v; want zero", g, wait)
	}
}

func TestReadaheadWindow(t *testing.T) {
	const kb, maxRA, size = 1 << 10, MaxReadahead, 1 << 30
	kern := Readahead{Next: -1}
	off := int64(0)
	// A stream starting at 0: the kernel's first read is not sequential,
	// then the window doubles from max/8 up to max.
	for i, want := range []int64{0, 128 * kb, 256 * kb, 512 * kb, 512 * kb} {
		if got := kern.Extend(off, 4*kb, size, maxRA); got != 4*kb+want {
			t.Fatalf("read %d: fetch %d, want %d", i, got, 4*kb+want)
		}
		off += 4 * kb
	}
	if got := kern.Extend(off, 4*kb, size, 0); got != 4*kb || kern.Window != maxRA {
		t.Fatalf("readahead off: fetch %d window %d; want %d and the window kept", got, kern.Window, 4*kb)
	}
	if got := kern.Extend(off+4*kb, 4*kb, size, maxRA); got != 4*kb+maxRA {
		t.Fatalf("stream after readahead off: fetch %d, want %d", got, 4*kb+maxRA)
	}
	if got := kern.Extend(size/2, 4*kb, size, maxRA); got != 4*kb || kern.Window != 0 {
		t.Fatalf("seek: fetch %d window %d; want the window reset", got, kern.Window)
	}
	if got := kern.Extend(size/2+4*kb, 4*kb, size/2+16*kb, maxRA); got != 12*kb {
		t.Fatalf("fetch near EOF %d, want clipped to %d", got, 12*kb)
	}

	var user Readahead // Next 0: a first read at 0 is sequential
	if got := user.Extend(0, 4*kb, size, maxRA); got != 4*kb+128*kb {
		t.Fatalf("first read at 0 with Next 0: fetch %d, want %d", got, 4*kb+128*kb)
	}
}
