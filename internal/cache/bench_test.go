package cache

import (
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/memacct"
)

// TestHotPathAllocs holds a cache-hit cycle allocation-free.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "CacheHit", Body: cacheHit, N: 10000},
	})
}

// BenchmarkCacheHit measures the ledger work of a read or write that
// hits the cache: one iteration touches, inserts, dirties and claims a
// 4 KiB resident range, extends the readahead window and picks the next
// dirty file.
func BenchmarkCacheHit(b *testing.B) { allocgate.Bench(b, cacheHit) }

func cacheHit(n int) func() {
	const size, op = 1 << 20, 4 << 10
	c := New[struct{}](memacct.NewMeter("bench"), 1<<30)
	f, _ := c.File(1, size)
	c.Insert(f, 0, size)
	c.MarkDirty(f, 0, size, 0)
	var ra Readahead
	return func() {
		for i := 0; i < n; i++ {
			off := int64(i) * op % size
			c.Touch(f)
			c.Insert(f, off, op)
			c.MarkDirty(f, off, op, time.Duration(i))
			f.Claim(off, op)
			ra.Extend(off, op, size, MaxReadahead)
			c.NextDirty()
		}
	}
}
