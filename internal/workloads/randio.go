package workloads

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// RandomIO emulates the Stress-ng RandomIO stressor: threads issue
// random small reads (with readahead batching) and random small writes
// against one file on the local ext4/RAID0 filesystem. Its purpose in
// the paper is to saturate its pool's cores and the shared kernel
// structures (page LRU, writeback) — the noisy neighbour of Fig 1/6a.
type RandomIO struct {
	FS        vfsapi.FileSystem
	Path      string
	Threads   int
	FileSize  int64
	ReadChunk int64 // readahead batch served per read call
	WriteSize int64
	// CPUPerBatch is the request-parsing and page-handling computation
	// of the dense 512-byte op stream each batch stands in for
	// (stress-ng keeps its cores hot).
	CPUPerBatch time.Duration
	// LockStress, when set, charges the shared kernel locks with the
	// per-op holds of the represented small-op stream (ops per batch).
	LockStress func(ctx vfsapi.Ctx, ops int)
	NewThread  func() *cpu.Thread
	Seed       int64

	Stats *Stats
}

// Defaults fills unset fields with the paper's configuration (1 GB
// file, 2 threads, 512-byte requests batched by 128 KB readahead).
func (w *RandomIO) Defaults(scale float64) {
	if w.Threads == 0 {
		w.Threads = 2
	}
	if w.FileSize == 0 {
		w.FileSize = int64(float64(1<<30) * scale)
		if w.FileSize < 16<<20 {
			w.FileSize = 16 << 20
		}
	}
	if w.ReadChunk == 0 {
		w.ReadChunk = 128 << 10
	}
	if w.WriteSize == 0 {
		w.WriteSize = 64 << 10 // 128 x 512 B back-to-back writes
	}
	if w.CPUPerBatch == 0 {
		w.CPUPerBatch = 150 * time.Microsecond
	}
	if w.Stats == nil {
		w.Stats = NewStats()
	}
}

// Prepare creates and fills the per-thread target files.
func (w *RandomIO) Prepare(ctx vfsapi.Ctx) error {
	for t := 0; t < w.Threads; t++ {
		h, err := w.FS.Open(ctx, w.pathFor(t), vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			return err
		}
		for off := int64(0); off < w.FileSize; off += 1 << 20 {
			h.Write(ctx, off, 1<<20)
		}
		if err := h.Fsync(ctx); err != nil {
			h.Close(ctx)
			return err
		}
		if err := h.Close(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (w *RandomIO) pathFor(tid int) string {
	return fmt.Sprintf("%s.%d", w.Path, tid)
}

// Run spawns the stressor threads.
func (w *RandomIO) Run(g *Group, clock Clock) {
	for t := 0; t < w.Threads; t++ {
		g.Go("randio", func(p *sim.Proc) { w.worker(p, t, clock) })
	}
}

func (w *RandomIO) worker(p *sim.Proc, tid int, clock Clock) {
	th := w.NewThread()
	ctx := ctxFor(p, th)
	rng := rand.New(rand.NewSource(StreamSeed(w.Seed, "randio", tid)))
	// Each stressor works its own file (stress-ng style), so several
	// kernel flushers end up servicing the noisy neighbour's dirty
	// pages on the slow local disks.
	h, err := w.FS.Open(ctx, w.pathFor(tid), vfsapi.RDWR)
	if err != nil {
		w.Stats.Errors++
		return
	}
	defer h.Close(ctx)
	for !clock.Done() {
		start := clock.Eng.Now()
		var moved int64
		off := rng.Int63n(w.FileSize - w.ReadChunk)
		if rng.Intn(2) == 0 {
			moved, _ = h.Read(ctx, off, w.ReadChunk)
		} else {
			moved, _ = h.Write(ctx, off, w.WriteSize)
		}
		th.Exec(p, cpu.User, w.CPUPerBatch)
		if w.LockStress != nil {
			w.LockStress(ctx, int(w.ReadChunk/512))
		}
		if clock.Measuring() {
			w.Stats.Record(moved, clock.Eng.Now()-start)
		}
	}
}
