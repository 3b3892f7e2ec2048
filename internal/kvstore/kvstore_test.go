package kvstore

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cpu"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

type rig struct {
	eng  *sim.Engine
	cpus *cpu.CPU
	mem  *memfs.FS
	db   *DB
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	cpus := cpu.New(eng, model.Default(), 4)
	mem := memfs.New()
	acct := cpu.NewAccount("kv")
	cfg.FS = mem
	cfg.Dir = "/db"
	cfg.Eng = eng
	cfg.NewThread = func() *cpu.Thread { return cpus.NewThread(acct, 0) }
	r := &rig{eng: eng, cpus: cpus, mem: mem}
	eng.Go("open", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: cfg.NewThread()}
		db, err := Open(ctx, cfg)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		r.db = db
	})
	// Drain only time-zero events: the compaction threads keep waking
	// on their periodic schedule, so a full Run would never return.
	eng.RunUntil(0)
	if r.db == nil {
		t.Fatal("db not opened")
	}
	return r
}

func (r *rig) run(t *testing.T, fn func(ctx vfsapi.Ctx)) {
	t.Helper()
	r.eng.Go("test", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: r.cpus.NewThread(cpu.NewAccount("t"), 0)}
		fn(ctx)
		r.db.Close(ctx)
	})
	r.eng.Run()
	if r.eng.LiveProcs() != 0 {
		t.Fatalf("leaked %d procs", r.eng.LiveProcs())
	}
}

func TestPutGetFromMemtable(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(ctx vfsapi.Ctx) {
		if err := r.db.Put(ctx, 42, 128<<10); err != nil {
			t.Fatal(err)
		}
		size, err := r.db.Get(ctx, 42)
		if err != nil || size != 128<<10 {
			t.Fatalf("get: %d %v", size, err)
		}
		if _, err := r.db.Get(ctx, 43); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing key: %v", err)
		}
	})
}

func TestMemtableFlushCreatesSSTable(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20})
	r.run(t, func(ctx vfsapi.Ctx) {
		for i := uint64(0); i < 20; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		if r.db.Flushes == 0 {
			t.Fatal("no flush happened")
		}
		// All keys must remain readable from the tables.
		for i := uint64(0); i < 20; i++ {
			if size, err := r.db.Get(ctx, i); err != nil || size != 128<<10 {
				t.Fatalf("get %d after flush: %d %v", i, size, err)
			}
		}
	})
}

func TestCompactionMergesL0IntoL1(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20, L0CompactTrigger: 2})
	r.run(t, func(ctx vfsapi.Ctx) {
		for i := uint64(0); i < 200; i++ {
			r.db.Put(ctx, i, 64<<10)
		}
		// Let the compaction threads run.
		ctx.P.Sleep(5 * 1e9)
		if r.db.Compactions == 0 {
			t.Fatal("no compaction ran")
		}
		l0, l1 := r.db.Levels()
		if l1 == 0 {
			t.Fatalf("no L1 tables after compaction (l0=%d)", l0)
		}
		// Every key still readable.
		for i := uint64(0); i < 200; i += 17 {
			if _, err := r.db.Get(ctx, i); err != nil {
				t.Fatalf("get %d after compaction: %v", i, err)
			}
		}
	})
}

func TestOverwriteKeepsNewestValue(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20, L0CompactTrigger: 2})
	r.run(t, func(ctx vfsapi.Ctx) {
		r.db.Put(ctx, 7, 1000)
		// Force flushes between versions.
		for i := uint64(100); i < 120; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		r.db.Put(ctx, 7, 2000)
		for i := uint64(200); i < 220; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		ctx.P.Sleep(5 * 1e9)
		size, err := r.db.Get(ctx, 7)
		if err != nil || size != 2000 {
			t.Fatalf("overwritten key: %d %v (want 2000)", size, err)
		}
	})
}

func TestWALRotatesOnFlush(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20})
	r.run(t, func(ctx vfsapi.Ctx) {
		for i := uint64(0); i < 20; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		ents, err := r.mem.Readdir(ctx, "/db")
		if err != nil {
			t.Fatal(err)
		}
		wals := 0
		for _, e := range ents {
			if len(e.Name) >= 4 && e.Name[:4] == "wal-" {
				wals++
			}
		}
		// Old WALs deleted after their memtable flushed: exactly one
		// live WAL.
		if wals != 1 {
			t.Fatalf("live WALs = %d, want 1", wals)
		}
	})
}

func TestStallTimeAccumulatesOnFlush(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20})
	r.mem.OpDelay = time.Millisecond // make SSTable writes take time
	r.run(t, func(ctx vfsapi.Ctx) {
		for i := uint64(0); i < 50; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		if r.db.StallTime == 0 {
			t.Fatal("flushes caused no write stalls")
		}
	})
}

func TestGetReadsIndexAndValue(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20})
	r.run(t, func(ctx vfsapi.Ctx) {
		for i := uint64(0); i < 20; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		before := r.mem.Reads
		if _, err := r.db.Get(ctx, 3); err != nil {
			t.Fatal(err)
		}
		// Key 3 is in an SSTable: index + value reads.
		if r.mem.Reads != before+2 {
			t.Fatalf("reads for one get = %d, want 2", r.mem.Reads-before)
		}
	})
}

// TestRandomOpsMatchMapOracle drives random put/get sequences against
// the LSM store and a plain map, across flushes and compactions.
func TestRandomOpsMatchMapOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, Config{MemtableBytes: 1 << 20, L0CompactTrigger: 3})
		oracle := map[uint64]int64{}
		keys := []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89}
		ok := true
		r.run(t, func(ctx vfsapi.Ctx) {
			for step := 0; step < 150 && ok; step++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(3) != 0 {
					size := rng.Int63n(256<<10) + 1
					if err := r.db.Put(ctx, k, size); err != nil {
						t.Logf("seed %d: put: %v", seed, err)
						ok = false
						return
					}
					oracle[k] = size
				} else {
					got, err := r.db.Get(ctx, k)
					want, exists := oracle[k]
					switch {
					case exists && err != nil:
						t.Logf("seed %d step %d: get %d: %v", seed, step, k, err)
						ok = false
					case exists && got != want:
						t.Logf("seed %d step %d: get %d = %d want %d", seed, step, k, got, want)
						ok = false
					case !exists && !errors.Is(err, ErrNotFound):
						t.Logf("seed %d step %d: phantom key %d: %d %v", seed, step, k, got, err)
						ok = false
					}
				}
				// Give compactions a chance to interleave.
				if step%25 == 24 {
					ctx.P.Sleep(time.Second)
				}
			}
			// Final check over every key.
			for k, want := range oracle {
				if got, err := r.db.Get(ctx, k); err != nil || got != want {
					t.Logf("seed %d final: key %d = %d,%v want %d", seed, k, got, err, want)
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteTombstones(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20, L0CompactTrigger: 2})
	r.run(t, func(ctx vfsapi.Ctx) {
		r.db.Put(ctx, 7, 1000)
		if err := r.db.Delete(ctx, 7); err != nil {
			t.Fatal(err)
		}
		if _, err := r.db.Get(ctx, 7); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key in memtable: %v", err)
		}
		// Force the tombstone through flush: fill and flush.
		for i := uint64(100); i < 120; i++ {
			r.db.Put(ctx, i, 128<<10)
		}
		if _, err := r.db.Get(ctx, 7); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key resurrected by flush: %v", err)
		}
		// And through compaction.
		ctx.P.Sleep(5 * time.Second)
		if r.db.Compactions == 0 {
			t.Fatal("no compaction ran")
		}
		if _, err := r.db.Get(ctx, 7); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key resurrected by compaction: %v", err)
		}
		// Re-inserting after delete works.
		r.db.Put(ctx, 7, 2000)
		if size, err := r.db.Get(ctx, 7); err != nil || size != 2000 {
			t.Fatalf("reinsert after delete: %d %v", size, err)
		}
	})
}

func TestScanMergesLevelsAndSkipsTombstones(t *testing.T) {
	r := newRig(t, Config{MemtableBytes: 1 << 20, L0CompactTrigger: 2})
	r.run(t, func(ctx vfsapi.Ctx) {
		// Keys 0..29 with size 64KB; delete every third.
		for i := uint64(0); i < 30; i++ {
			r.db.Put(ctx, i, 64<<10)
		}
		for i := uint64(0); i < 30; i += 3 {
			r.db.Delete(ctx, i)
		}
		ctx.P.Sleep(3 * time.Second) // let flush/compaction churn
		count, bytes, err := r.db.Scan(ctx, 0, 29)
		if err != nil {
			t.Fatal(err)
		}
		if count != 20 {
			t.Fatalf("scan found %d live keys, want 20", count)
		}
		if bytes != 20*(64<<10) {
			t.Fatalf("scan bytes = %d", bytes)
		}
		// Sub-range scan.
		count, _, _ = r.db.Scan(ctx, 10, 19)
		// keys 10..19 minus deleted {12,15,18} = 7
		if count != 7 {
			t.Fatalf("subrange scan = %d, want 7", count)
		}
	})
}

// TestMergeMatchesMapMerge holds merge to the map merge it replaced:
// over random runs, newest first, with shared keys and tombstones, it
// must produce the keys and sizes that applying the runs oldest first
// to a map, dropping tombstones and sorting the keys, did.
func TestMergeMatchesMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		var ts []*sstable
		for range rng.Intn(6) {
			entries := map[uint64]int64{}
			for range rng.Intn(40) {
				size := int64(1 + rng.Intn(4096))
				if rng.Intn(4) == 0 {
					size = tombstone
				}
				entries[uint64(rng.Intn(64))] = size
			}
			t := &sstable{}
			for k := range entries {
				t.keys = append(t.keys, k)
			}
			slices.Sort(t.keys)
			for _, k := range t.keys {
				t.sizes = append(t.sizes, entries[k])
			}
			ts = append(ts, t)
		}
		merged := map[uint64]int64{}
		for i := len(ts) - 1; i >= 0; i-- {
			for j, k := range ts[i].keys {
				merged[k] = ts[i].sizes[j]
			}
		}
		var wantKeys []uint64
		for k, size := range merged {
			if size != tombstone {
				wantKeys = append(wantKeys, k)
			}
		}
		slices.Sort(wantKeys)
		wantSizes := []int64{}
		for _, k := range wantKeys {
			wantSizes = append(wantSizes, merged[k])
		}
		keys, sizes := merge(ts)
		if !slices.Equal(keys, wantKeys) || !slices.Equal(sizes, wantSizes) {
			t.Fatalf("case %d: merge gives %v %v, map merge %v %v", n, keys, sizes, wantKeys, wantSizes)
		}
	}
}
