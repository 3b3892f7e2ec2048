// Package kvstore implements a log-structured merge-tree key-value
// store over a vfsapi.FileSystem: write-ahead log, in-memory memtable,
// sorted-run SSTables with L0->L1 compaction, and point gets through a
// per-table index. It stands in for RocksDB in the paper's application
// experiments (§6.3.1): 128 KB values over a container root filesystem
// mounted from network storage.
package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Config configures a DB instance.
type Config struct {
	// FS is the filesystem holding the database directory.
	FS vfsapi.FileSystem
	// Dir is the database directory.
	Dir string
	// MemtableBytes is the write buffer size (paper: 64 MB).
	MemtableBytes int64
	// L0CompactTrigger is the number of L0 runs that triggers
	// compaction (RocksDB default 4).
	L0CompactTrigger int
	// Eng, Params, NewThread wire the store into the simulation.
	Eng       *sim.Engine
	Params    *model.Params
	NewThread func() *cpu.Thread
}

// DB is an open key-value store.
type DB struct {
	cfg Config

	mem      map[uint64]int64
	memBytes int64
	wal      vfsapi.Handle
	walSeq   int

	l0         []*sstable // newest first
	l1         []*sstable // sorted by MinKey, disjoint
	nextID     int
	mu         *sim.Mutex
	compactQ   *sim.WaitQueue
	closeQ     *sim.WaitQueue
	stopped    bool
	liveComp   int
	compacting bool

	// Statistics.
	Puts        uint64
	Deletes     uint64
	Gets        uint64
	GetMisses   uint64
	Flushes     uint64
	Compactions uint64
	StallTime   time.Duration
}

type sstable struct {
	id    int
	path  string
	min   uint64
	max   uint64
	bytes int64
	keys  []uint64 // sorted
	sizes []int64
	offs  []int64
}

const (
	entryOverhead     = 32        // key + length + CRC per record
	compactionThreads = 2         // background compaction pool (paper: 2)
	targetTableBytes  = 256 << 20 // merged L1 runs split at this size
)

// Open creates a DB in cfg.Dir and starts the compaction threads.
func Open(ctx vfsapi.Ctx, cfg Config) (*DB, error) {
	if cfg.MemtableBytes <= 0 {
		cfg.MemtableBytes = 64 << 20
	}
	if cfg.L0CompactTrigger <= 0 {
		cfg.L0CompactTrigger = 4
	}
	if cfg.Params == nil {
		cfg.Params = model.Default()
	}
	if err := cfg.FS.Mkdir(ctx, cfg.Dir); err != nil && !errors.Is(err, vfsapi.ErrExist) {
		return nil, err
	}
	wal, err := cfg.FS.Open(ctx, cfg.Dir+"/wal-000000", vfsapi.CREATE|vfsapi.APPEND)
	if err != nil {
		return nil, err
	}
	db := &DB{
		cfg:      cfg,
		mem:      map[uint64]int64{},
		wal:      wal,
		mu:       sim.NewMutex(cfg.Eng, cfg.Dir+".dbmu"),
		compactQ: sim.NewWaitQueue(cfg.Eng, cfg.Dir+".compact"),
		closeQ:   sim.NewWaitQueue(cfg.Eng, cfg.Dir+".close"),
	}
	for i := 0; i < compactionThreads; i++ {
		db.liveComp++
		cfg.Eng.Go("compaction", func(p *sim.Proc) { db.compactionLoop(p) })
	}
	return db, nil
}

// Close stops the background threads, waits for any in-flight
// compaction to finish, and syncs the WAL.
func (db *DB) Close(ctx vfsapi.Ctx) error {
	db.stopped = true
	db.compactQ.Broadcast()
	for db.liveComp > 0 {
		db.closeQ.Wait(ctx.P)
	}
	err := db.wal.Fsync(ctx)
	db.wal.Close(ctx)
	return err
}

// Put inserts key with a value of valueSize bytes: WAL append, memtable
// insert, and a flush (write stall) when the write buffer fills.
func (db *DB) Put(ctx vfsapi.Ctx, key uint64, valueSize int64) error {
	db.Puts++
	if _, err := db.wal.Append(ctx, valueSize+entryOverhead); err != nil {
		return err
	}
	// Memtable insert: skiplist work.
	ctx.T.Exec(ctx.P, cpu.User, 800*time.Nanosecond)
	db.mu.Lock(ctx.P)
	if old, ok := db.mem[key]; ok {
		if old == tombstone {
			db.memBytes -= entryOverhead
		} else {
			db.memBytes -= old + entryOverhead
		}
	}
	db.mem[key] = valueSize
	db.memBytes += valueSize + entryOverhead
	full := db.memBytes >= db.cfg.MemtableBytes
	db.mu.Unlock(ctx.P)
	if full {
		start := db.cfg.Eng.Now()
		if err := db.flush(ctx); err != nil {
			return err
		}
		db.StallTime += db.cfg.Eng.Now() - start
	}
	return nil
}

// Get looks up key: memtable first, then L0 newest-to-oldest, then L1.
// It returns the value size, or ErrNotFound.
func (db *DB) Get(ctx vfsapi.Ctx, key uint64) (int64, error) {
	db.Gets++
	ctx.T.Exec(ctx.P, cpu.User, 600*time.Nanosecond)
	db.mu.Lock(ctx.P)
	if size, ok := db.mem[key]; ok {
		db.mu.Unlock(ctx.P)
		if size == tombstone {
			db.GetMisses++
			return 0, ErrNotFound
		}
		return size, nil
	}
	tables := make([]*sstable, 0, len(db.l0)+1)
	tables = append(tables, db.l0...)
	if t := db.findL1(key); t != nil {
		tables = append(tables, t)
	}
	db.mu.Unlock(ctx.P)

	for _, t := range tables {
		if key < t.min || key > t.max {
			continue
		}
		i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= key })
		if i >= len(t.keys) || t.keys[i] != key {
			// Bloom-filter/index probe on a table without the key.
			ctx.T.Exec(ctx.P, cpu.User, 300*time.Nanosecond)
			continue
		}
		if t.sizes[i] == tombstone {
			db.GetMisses++
			return 0, ErrNotFound
		}
		h, err := db.cfg.FS.Open(ctx, t.path, vfsapi.RDONLY)
		if err != nil {
			return 0, err
		}
		// Index block then the value's data block(s).
		h.Read(ctx, 0, 4096)
		h.Read(ctx, t.offs[i], t.sizes[i])
		h.Close(ctx)
		return t.sizes[i], nil
	}
	db.GetMisses++
	return 0, ErrNotFound
}

// ErrNotFound reports a missing key.
var ErrNotFound = errors.New("kvstore: key not found")

// tombstone marks a deleted key in memtables and SSTables until
// compaction into the bottom level drops it.
const tombstone int64 = -1

// Delete removes key: a write-ahead record plus a memtable tombstone,
// resolved like any other write through flush and compaction.
func (db *DB) Delete(ctx vfsapi.Ctx, key uint64) error {
	db.Deletes++
	if _, err := db.wal.Append(ctx, entryOverhead); err != nil {
		return err
	}
	ctx.T.Exec(ctx.P, cpu.User, 800*time.Nanosecond)
	db.mu.Lock(ctx.P)
	if old, ok := db.mem[key]; ok && old != tombstone {
		db.memBytes -= old
	}
	db.mem[key] = tombstone
	db.memBytes += entryOverhead
	full := db.memBytes >= db.cfg.MemtableBytes
	db.mu.Unlock(ctx.P)
	if full {
		return db.flush(ctx)
	}
	return nil
}

// Scan iterates keys in [lo, hi], merging the memtable and every run
// with newest-wins semantics and skipping tombstones. It returns the
// number of live keys and their total value bytes, charging the reads
// of the covered data.
func (db *DB) Scan(ctx vfsapi.Ctx, lo, hi uint64) (int, int64, error) {
	ctx.T.Exec(ctx.P, cpu.User, 2*time.Microsecond)
	db.mu.Lock(ctx.P)
	merged := map[uint64]int64{}
	// Oldest to newest: L1, then L0 oldest-first, then the memtable.
	tables := make([]*sstable, 0, len(db.l1)+len(db.l0))
	tables = append(tables, db.l1...)
	for i := len(db.l0) - 1; i >= 0; i-- {
		tables = append(tables, db.l0[i])
	}
	db.mu.Unlock(ctx.P)

	for _, t := range tables {
		if t.max < lo || t.min > hi {
			continue
		}
		h, err := db.cfg.FS.Open(ctx, t.path, vfsapi.RDONLY)
		if err != nil {
			return 0, 0, err
		}
		h.Read(ctx, 0, 4096) // index block
		i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= lo })
		for ; i < len(t.keys) && t.keys[i] <= hi; i++ {
			size := t.sizes[i]
			if size != tombstone {
				h.Read(ctx, t.offs[i], size)
			}
			merged[t.keys[i]] = size
		}
		h.Close(ctx)
	}
	db.mu.Lock(ctx.P)
	for k, size := range db.mem {
		if k >= lo && k <= hi {
			merged[k] = size
		}
	}
	db.mu.Unlock(ctx.P)

	var count int
	var bytes int64
	for _, size := range merged {
		if size != tombstone {
			count++
			bytes += size
		}
	}
	return count, bytes, nil
}

func (db *DB) findL1(key uint64) *sstable {
	i := sort.Search(len(db.l1), func(i int) bool { return db.l1[i].max >= key })
	if i < len(db.l1) && key >= db.l1[i].min {
		return db.l1[i]
	}
	return nil
}

// flush freezes the memtable and writes it as a new L0 run.
func (db *DB) flush(ctx vfsapi.Ctx) error {
	db.mu.Lock(ctx.P)
	if db.memBytes < db.cfg.MemtableBytes {
		db.mu.Unlock(ctx.P) // another thread already flushed
		return nil
	}
	frozen := db.mem
	db.mem = map[uint64]int64{}
	db.memBytes = 0
	db.mu.Unlock(ctx.P)

	t, err := db.writeTable(ctx, frozen)
	if err != nil {
		return err
	}
	db.mu.Lock(ctx.P)
	db.l0 = append([]*sstable{t}, db.l0...)
	db.Flushes++
	trigger := len(db.l0) >= db.cfg.L0CompactTrigger
	db.mu.Unlock(ctx.P)

	// Start a fresh WAL for the new memtable.
	db.walSeq++
	old := db.wal
	wal, err := db.cfg.FS.Open(ctx, fmt.Sprintf("%s/wal-%06d", db.cfg.Dir, db.walSeq), vfsapi.CREATE|vfsapi.APPEND)
	if err != nil {
		return err
	}
	db.wal = wal
	old.Close(ctx)
	db.cfg.FS.Unlink(ctx, fmt.Sprintf("%s/wal-%06d", db.cfg.Dir, db.walSeq-1))
	if trigger {
		db.compactQ.Broadcast()
	}
	return nil
}

// writeTable materializes a sorted run from a key map.
func (db *DB) writeTable(ctx vfsapi.Ctx, entries map[uint64]int64) (*sstable, error) {
	keys := make([]uint64, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	sizes := make([]int64, len(keys))
	for i, k := range keys {
		sizes[i] = entries[k]
	}
	return db.writeSorted(ctx, keys, sizes)
}

// writeSorted writes a run of the sorted keys, key i's value of sizes[i]
// bytes (or a tombstone).
func (db *DB) writeSorted(ctx vfsapi.Ctx, keys []uint64, sizes []int64) (*sstable, error) {
	db.nextID++
	t := &sstable{
		id:   db.nextID,
		path: fmt.Sprintf("%s/sst-%06d", db.cfg.Dir, db.nextID),
	}
	h, err := db.cfg.FS.Open(ctx, t.path, vfsapi.CREATE|vfsapi.WRONLY)
	if err != nil {
		return nil, err
	}
	t.keys = append(make([]uint64, 0, len(keys)), keys...)
	t.sizes = append(make([]int64, 0, len(keys)), sizes...)
	t.offs = make([]int64, len(keys))
	var off int64 = 4096 // index block
	for i, size := range sizes {
		t.offs[i] = off
		if size == tombstone {
			off += entryOverhead // tombstones carry no value bytes
		} else {
			off += size + entryOverhead
		}
	}
	if len(keys) > 0 {
		t.min, t.max = keys[0], keys[len(keys)-1]
	}
	t.bytes = off
	// Stream the run out in 1 MB chunks.
	for o := int64(0); o < off; o += 1 << 20 {
		n := int64(1 << 20)
		if o+n > off {
			n = off - o
		}
		if _, err := h.Write(ctx, o, n); err != nil {
			h.Close(ctx)
			return nil, err
		}
	}
	if err := h.Fsync(ctx); err != nil {
		h.Close(ctx)
		return nil, err
	}
	return t, h.Close(ctx)
}

// compactionLoop merges L0 runs into L1 in the background. Compactions
// are serialized across the pool threads: overlapping concurrent merges
// would install L1 runs with intersecting key ranges and serve stale
// versions.
func (db *DB) compactionLoop(p *sim.Proc) {
	defer func() {
		db.liveComp--
		db.closeQ.Broadcast()
	}()
	th := db.cfg.NewThread()
	ctx := vfsapi.Ctx{P: p, T: th}
	for !db.stopped {
		db.compactQ.WaitTimeout(p, 500*time.Millisecond)
		if db.stopped {
			return
		}
		if db.compacting {
			continue
		}
		db.compacting = true
		for len(db.l0) >= db.cfg.L0CompactTrigger && !db.stopped {
			db.compactOnce(ctx)
		}
		db.compacting = false
	}
}

// compactOnce merges the current L0 runs with the overlapping L1 runs.
// The inputs stay visible to readers until the merged outputs are
// installed, so concurrent gets never observe a gap; L0 runs flushed
// while the merge is in flight stay in L0 and remain newer than the
// merged output.
func (db *DB) compactOnce(ctx vfsapi.Ctx) {
	db.mu.Lock(ctx.P)
	if len(db.l0) < db.cfg.L0CompactTrigger {
		db.mu.Unlock(ctx.P)
		return
	}
	l0In := append([]*sstable{}, db.l0...)
	var lo, hi uint64 = ^uint64(0), 0
	for _, t := range l0In {
		if t.min < lo {
			lo = t.min
		}
		if t.max > hi {
			hi = t.max
		}
	}
	var overlap []*sstable
	for _, t := range db.l1 {
		if t.max >= lo && t.min <= hi {
			overlap = append(overlap, t)
		}
	}
	db.mu.Unlock(ctx.P)

	// Read every input run, oldest first. inputs is newest first: L0
	// newest first, then the bottom level's disjoint runs.
	inputs := append(append([]*sstable{}, l0In...), overlap...)
	var totalBytes int64
	for i := len(inputs) - 1; i >= 0; i-- {
		t := inputs[i]
		h, err := db.cfg.FS.Open(ctx, t.path, vfsapi.RDONLY)
		if err == nil {
			for o := int64(0); o < t.bytes; o += 1 << 20 {
				h.Read(ctx, o, 1<<20)
			}
			h.Close(ctx)
		}
		totalBytes += t.bytes
	}
	// Merge CPU at copy rate.
	ctx.T.ExecBytes(ctx.P, cpu.User, totalBytes, db.cfg.Params.MemcpyBytesPerSec)

	// Write merged runs split at the target table size. This merge
	// covers every older occurrence of its key range (all L0 plus the
	// overlapping bottom level), so tombstones can be dropped here.
	keys, sizes := merge(inputs)
	var outs []*sstable
	for start := 0; start < len(keys); {
		var bytes int64
		end := start
		for end < len(keys) && bytes < targetTableBytes {
			bytes += sizes[end] + entryOverhead
			end++
		}
		t, err := db.writeSorted(ctx, keys[start:end], sizes[start:end])
		if err == nil {
			outs = append(outs, t)
		}
		start = end
	}

	// Install: drop exactly the inputs, keep anything flushed meanwhile.
	db.mu.Lock(ctx.P)
	inSet := map[*sstable]bool{}
	for _, t := range inputs {
		inSet[t] = true
	}
	keepL0 := db.l0[:0]
	for _, t := range db.l0 {
		if !inSet[t] {
			keepL0 = append(keepL0, t)
		}
	}
	db.l0 = keepL0
	keepL1 := db.l1[:0]
	for _, t := range db.l1 {
		if !inSet[t] {
			keepL1 = append(keepL1, t)
		}
	}
	db.l1 = append(keepL1, outs...)
	sort.Slice(db.l1, func(i, j int) bool { return db.l1[i].min < db.l1[j].min })
	db.Compactions++
	db.mu.Unlock(ctx.P)

	// Remove the input files.
	for _, t := range inputs {
		db.cfg.FS.Unlink(ctx, t.path)
	}
}

// merge merges the sorted runs ts, newest first, into one sorted run:
// of the entries of one key the newest wins, and a winning tombstone
// drops the key.
func merge(ts []*sstable) (keys []uint64, sizes []int64) {
	n := 0
	for _, t := range ts {
		n += len(t.keys)
	}
	keys, sizes = make([]uint64, 0, n), make([]int64, 0, n)
	next := make([]int, len(ts)) // each run's first unmerged entry
	for {
		// The smallest unmerged key, and the newest run that holds it.
		win := -1
		for i, t := range ts {
			if next[i] < len(t.keys) && (win < 0 || t.keys[next[i]] < ts[win].keys[next[win]]) {
				win = i
			}
		}
		if win < 0 {
			return keys, sizes
		}
		k, size := ts[win].keys[next[win]], ts[win].sizes[next[win]]
		for i, t := range ts {
			if next[i] < len(t.keys) && t.keys[next[i]] == k {
				next[i]++
			}
		}
		if size != tombstone {
			keys, sizes = append(keys, k), append(sizes, size)
		}
	}
}

// Levels reports (L0 count, L1 count) for diagnostics.
func (db *DB) Levels() (int, int) { return len(db.l0), len(db.l1) }

// MemtableBytes reports the current write-buffer fill.
func (db *DB) MemtableBytes() int64 { return db.memBytes }
