package workloads

import (
	"errors"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// KVPut drives random inserts into a kvstore.DB (the paper's RocksDB
// put workload: 1 thread inserting random 9 B keys with 128 KB values
// until TotalBytes have been written).
type KVPut struct {
	DB         *kvstore.DB
	TotalBytes int64
	ValueSize  int64
	Threads    int
	Seed       int64
	NewThread  func() *cpu.Thread

	Stats *Stats
}

// Defaults fills unset fields with the paper's put configuration.
func (w *KVPut) Defaults(scale float64) {
	if w.Threads == 0 {
		w.Threads = 1
	}
	if w.ValueSize == 0 {
		w.ValueSize = 128 << 10
	}
	if w.TotalBytes == 0 {
		w.TotalBytes = int64(float64(1<<30) * scale)
		if w.TotalBytes < 32<<20 {
			w.TotalBytes = 32 << 20
		}
	}
	if w.Stats == nil {
		w.Stats = NewStats()
	}
}

// Run spawns the put threads; each inserts its share of TotalBytes.
func (w *KVPut) Run(g *Group, clock Clock) {
	per := w.TotalBytes / int64(w.Threads)
	for t := 0; t < w.Threads; t++ {
		g.Go("kvput", func(p *sim.Proc) {
			th := w.NewThread()
			ctx := ctxFor(p, th)
			rng := rand.New(rand.NewSource(StreamSeed(w.Seed, "kvput", t)))
			for written := int64(0); written < per; written += w.ValueSize {
				start := clock.Eng.Now()
				if err := w.DB.Put(ctx, rng.Uint64(), w.ValueSize); err != nil {
					w.Stats.Errors++
					continue
				}
				if clock.Measuring() {
					w.Stats.Record(w.ValueSize, clock.Eng.Now()-start)
				}
			}
		})
	}
}

// KVGet drives random point lookups (the paper's out-of-core read
// workload: read back TotalBytes with random gets against an 8 GB
// dataset that exceeds the client cache).
type KVGet struct {
	DB         *kvstore.DB
	Keys       []uint64 // population to draw from
	TotalBytes int64
	ValueSize  int64
	Threads    int
	Seed       int64
	NewThread  func() *cpu.Thread

	Stats *Stats
}

// Defaults fills unset fields with the paper's get configuration.
func (w *KVGet) Defaults(scale float64) {
	if w.Threads == 0 {
		w.Threads = 1
	}
	if w.ValueSize == 0 {
		w.ValueSize = 128 << 10
	}
	if w.TotalBytes == 0 {
		w.TotalBytes = int64(float64(8<<30) * scale)
		if w.TotalBytes < 32<<20 {
			w.TotalBytes = 32 << 20
		}
	}
	if w.Stats == nil {
		w.Stats = NewStats()
	}
}

// Populate inserts a dataset of TotalBytes and returns the keys.
func Populate(ctx vfsapi.Ctx, db *kvstore.DB, totalBytes, valueSize int64, seed int64) ([]uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, 0, totalBytes/valueSize)
	for written := int64(0); written < totalBytes; written += valueSize {
		k := rng.Uint64()
		if err := db.Put(ctx, k, valueSize); err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

// Run spawns the get threads; each performs its share of lookups.
func (w *KVGet) Run(g *Group, clock Clock) {
	if len(w.Keys) == 0 {
		panic("workloads: KVGet requires a populated key set")
	}
	per := w.TotalBytes / int64(w.Threads) / w.ValueSize
	for t := 0; t < w.Threads; t++ {
		g.Go("kvget", func(p *sim.Proc) {
			th := w.NewThread()
			ctx := ctxFor(p, th)
			rng := rand.New(rand.NewSource(StreamSeed(w.Seed, "kvget", t)))
			for i := int64(0); i < per; i++ {
				key := w.Keys[rng.Intn(len(w.Keys))]
				start := clock.Eng.Now()
				size, err := w.DB.Get(ctx, key)
				if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
					w.Stats.Errors++
					continue
				}
				if clock.Measuring() {
					w.Stats.Record(size, clock.Eng.Now()-start)
				}
			}
		})
	}
}
