// Package cache is the bookkeeping both client caches share: the
// kernel page cache (kern.Mount) and the user-level object cache
// (cephclient.Client). It keeps each file's resident, dirty and
// in-flight extents, an LRU whose eviction drops clean ranges only, the
// dirty list in the order files were first dirtied, the dirty total,
// and each open file's readahead window.
//
// The ledger is pure: it holds no lock, charges no CPU, sees no
// simulated time and wakes no one. Those are what the paper compares,
// so each client keeps them: the kernel takes lru_lock, wb_lock and
// i_mutex around its ledger calls and writes back from roaming
// kthreads; the user-level client takes client_lock around every call
// and writes back from threads pinned to its pool. The request run both
// clients share over the ledger, the read-miss loop included, is
// package cacherun, which takes each client's locks and charges from
// its step table.
//
// Write-back (cacherun.Writeback) shares Due, the one write-back-due
// test, and Written, which takes a stored batch off the dirty total.
package cache

import (
	"container/list"
	"time"

	"repro/internal/extent"
	"repro/internal/memacct"
)

// File is one file's cache state. X is the one per-client extra: the
// inode mutex in the kernel, the revocation mark in the user-level
// client.
type File[X any] struct {
	Ino  uint64
	Gen  uint64 // the ledger's crash generation when the entry was made
	Size int64  // the client's view of the file size

	Cached   extent.Set // resident ranges
	Dirty    extent.Set // ranges awaiting writeback
	Fetching extent.Set // ranges one reader is fetching; others wait

	// Unlinked marks a file removed from the namespace. Writes through a
	// handle still open on it stay dirty until a flusher discards them.
	Unlinked bool
	// Flushing marks a file a writeback thread is working on, so that
	// NextDirty hands it to no second thread.
	Flushing bool

	X X

	lruElem    *list.Element
	inDirty    bool
	dirtySince time.Duration
}

// Claim finds the first range of [off, off+n) that is not resident.
// If no reader is fetching any of it, Claim marks it in flight and
// returns it; the caller fetches it, inserts it and removes it from
// Fetching. If another reader is fetching part of it, Claim returns
// wait and the caller waits for that fetch. A zero range with wait
// false means [off, off+n) is resident.
func (f *File[X]) Claim(off, n int64) (g extent.Extent, wait bool) {
	g, ok := f.Cached.FirstGap(off, n)
	if !ok {
		return extent.Extent{}, false
	}
	if f.Fetching.Covered(g.Off, g.Len) > 0 {
		return extent.Extent{}, true
	}
	f.Fetching.Insert(g.Off, g.Len)
	return g, false
}

// Cache is one client's ledger: its file table, LRU and dirty list.
type Cache[X any] struct {
	// Meter counts the resident bytes. It belongs to this ledger alone.
	Meter *memacct.Meter
	// Limit is the resident-byte bound past which Over reports true.
	Limit int64

	// Gen counts crashes. Entries of an earlier generation belong to a
	// dead incarnation: Touch, Insert and MarkDirty ignore them.
	Gen uint64
	// DirtyBytes is the dirty total. MarkDirty and Drop keep it;
	// Written subtracts each batch once the backend has it.
	DirtyBytes int64
	// OldestDirty is when the file at the head of the dirty list was
	// first dirtied: the age the expire check reads.
	OldestDirty time.Duration

	files map[uint64]*File[X]
	lru   list.List // *File[X]; front is coldest
	dirty []*File[X]
}

// New returns an empty ledger accounting to meter, bounded by limit.
func New[X any](meter *memacct.Meter, limit int64) *Cache[X] {
	return &Cache[X]{Meter: meter, Limit: limit, files: map[uint64]*File[X]{}}
}

// File returns ino's entry, making one of the given size if there is
// none; created reports that it did.
func (c *Cache[X]) File(ino uint64, size int64) (f *File[X], created bool) {
	if f, ok := c.files[ino]; ok {
		return f, false
	}
	f = &File[X]{Ino: ino, Gen: c.Gen, Size: size}
	c.files[ino] = f
	return f, true
}

// Lookup returns ino's entry, if the table holds one.
func (c *Cache[X]) Lookup(ino uint64) (*File[X], bool) {
	f, ok := c.files[ino]
	return f, ok
}

// Forget removes ino from the table. Handles keep the entry they hold.
func (c *Cache[X]) Forget(ino uint64) { delete(c.files, ino) }

// Stale reports whether f belongs to an incarnation before the last
// crash.
func (c *Cache[X]) Stale(f *File[X]) bool { return f.Gen != c.Gen }

// Touch moves f to the hot end of the LRU. A stale entry stays out of
// it: its residency left the meter with the crash, so evicting it
// later would free bytes twice.
func (c *Cache[X]) Touch(f *File[X]) {
	if c.Stale(f) {
		return
	}
	if f.lruElem == nil {
		f.lruElem = c.lru.PushBack(f)
		return
	}
	c.lru.MoveToBack(f.lruElem)
}

// Insert makes [off, off+n) of f resident, charges the meter for the
// bytes that were not, touches f and returns those bytes. A stale entry
// is left alone.
func (c *Cache[X]) Insert(f *File[X], off, n int64) int64 {
	if c.Stale(f) {
		return 0
	}
	added := f.Cached.Insert(off, n)
	c.Meter.Alloc(added)
	c.Touch(f)
	return added
}

// Over reports whether the resident bytes exceed Limit.
func (c *Cache[X]) Over() bool { return c.Meter.Current() > c.Limit }

// Evict drops the clean ranges of the coldest files until the resident
// bytes are at most 15/16 of Limit, and returns the bytes freed. Dirty
// ranges stay resident; a file with nothing left leaves the LRU.
func (c *Cache[X]) Evict() int64 {
	watermark := c.Limit - c.Limit/16
	var freed int64
	for e := c.lru.Front(); e != nil && c.Meter.Current() > watermark; {
		next := e.Next()
		f := e.Value.(*File[X])
		before := f.Cached.Len()
		f.Cached.Clear()
		for _, d := range f.Dirty.Extents() {
			f.Cached.Insert(d.Off, d.Len)
		}
		// A dirty range can be missing from Cached (an eviction between
		// a write's insert and its MarkDirty dropped it); putting it back
		// is charged to no one, so only a net drop counts.
		if n := before - f.Cached.Len(); n > 0 {
			c.Meter.Free(n)
			freed += n
		}
		if f.Cached.Len() == 0 {
			c.lru.Remove(e)
			f.lruElem = nil
		}
		e = next
	}
	return freed
}

// MarkDirty records [off, off+n) of f as dirty at time now and returns
// the bytes that were clean. A file's first dirty bytes put it at the
// tail of the dirty list. A stale entry is left alone.
func (c *Cache[X]) MarkDirty(f *File[X], off, n int64, now time.Duration) int64 {
	if c.Stale(f) {
		return 0
	}
	newly := f.Dirty.Insert(off, n)
	if newly > 0 {
		if !f.inDirty {
			f.inDirty = true
			f.dirtySince = now
			c.dirty = append(c.dirty, f)
			if len(c.dirty) == 1 {
				c.OldestDirty = now
			}
		}
		c.DirtyBytes += newly
	}
	return newly
}

// NextDirty returns the longest-dirty file that has dirty bytes and is
// not Flushing, unlisting the clean files it passes that no thread is
// flushing. It returns nil when there is none.
func (c *Cache[X]) NextDirty() *File[X] {
	for i := 0; i < len(c.dirty); {
		f := c.dirty[i]
		switch {
		case f.Flushing:
			i++
		case f.Dirty.Len() == 0:
			c.Unlist(f)
		default:
			return f
		}
	}
	return nil
}

// Due reports whether write-back is due: the dirty total is at least
// bg, or the longest-dirty file has waited expire by now.
func (c *Cache[X]) Due(bg int64, now, expire time.Duration) bool {
	return c.DirtyBytes >= bg || (c.DirtyBytes > 0 && now-c.OldestDirty >= expire)
}

// Written subtracts a batch of n bytes the backend now holds from the
// dirty total and takes f off the dirty list once it has no dirty bytes
// left. The caller has checked that f is not stale.
func (c *Cache[X]) Written(f *File[X], n int64) {
	c.DirtyBytes -= n
	if f.Dirty.Len() == 0 {
		c.Unlist(f)
	}
}

// Unlist takes f off the dirty list, if it is on it.
func (c *Cache[X]) Unlist(f *File[X]) {
	for i, g := range c.dirty {
		if g == f {
			c.dirty = append(c.dirty[:i], c.dirty[i+1:]...)
			break
		}
	}
	f.inDirty = false
	if len(c.dirty) > 0 {
		c.OldestDirty = c.dirty[0].dirtySince
	}
}

// Drop discards all of f's residency and dirty state (unlink, truncate,
// revocation) and returns the dirty bytes discarded; the caller wakes
// writers throttled on the dirty total when that is not zero.
func (c *Cache[X]) Drop(f *File[X]) int64 {
	c.Meter.Free(f.Cached.Len())
	f.Cached.Clear()
	if f.lruElem != nil {
		c.lru.Remove(f.lruElem)
		f.lruElem = nil
	}
	d := f.Dirty.Len()
	if d > 0 {
		c.DirtyBytes -= d
		f.Dirty.Clear()
		c.Unlist(f)
	}
	return d
}

// Crash discards the ledger's incarnation: the generation moves on,
// every resident byte leaves the meter, and the table, LRU, dirty list
// and dirty total start empty. With wipe, the discarded entries also
// lose their ranges, as the kernel's page structures die with the
// host: a thread that resumes on one across the crash finds nothing to
// write back. Without wipe, a dead entry keeps them, and such a thread
// stops at its own crash check.
func (c *Cache[X]) Crash(wipe bool) {
	c.Gen++
	c.Meter.Free(c.Meter.Current())
	if wipe {
		for _, f := range c.files {
			f.Cached.Clear()
			f.Dirty.Clear()
			f.Fetching.Clear()
			f.lruElem = nil
			f.inDirty = false
		}
	}
	c.files = map[uint64]*File[X]{}
	c.lru.Init()
	c.dirty = nil
	c.DirtyBytes = 0
}

// DirtyAudit recomputes the dirty accounting for invariant checks: the
// dirty bytes of the files in the table plus those of unlinked files
// still on the dirty list (written through a handle left open), the
// number of files on the list, and DirtyBytes. The first must equal the
// last, and the list must be empty exactly when DirtyBytes is zero.
func (c *Cache[X]) DirtyAudit() (fileSum int64, listed int, counter int64) {
	for _, f := range c.files {
		fileSum += f.Dirty.Len()
	}
	for _, f := range c.dirty {
		if f.Unlinked {
			fileSum += f.Dirty.Len()
		}
	}
	return fileSum, len(c.dirty), c.DirtyBytes
}

// MaxReadahead is the largest readahead window of either client.
const MaxReadahead = 512 << 10

// Readahead is one open file's sequential-read detector. A read at
// Next continues the stream and doubles Window, starting from an eighth
// of the maximum; any other offset resets it.
type Readahead struct {
	Next   int64 // offset that continues the stream
	Window int64 // bytes fetched beyond the read
}

// Extend records a read of [off, off+n) from a file of size bytes and
// returns how many bytes from off to fetch: n plus the window, clipped
// to the file. With max zero (readahead deferred), it fetches n and the
// window keeps its size.
func (r *Readahead) Extend(off, n, size, max int64) int64 {
	fetch := n
	if max > 0 {
		if off == r.Next {
			if r.Window == 0 {
				r.Window = max / 8
			}
			r.Window = min(r.Window*2, max)
		} else {
			r.Window = 0
		}
		fetch = min(n+r.Window, size-off)
	}
	r.Next = off + n
	return fetch
}
