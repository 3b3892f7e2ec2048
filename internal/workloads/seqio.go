package workloads

import (
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// SeqIO generates the Filebench Singlestreamwrite/Singlestreamread
// micro-workloads: each thread streams sequentially through its own
// file (paper settings: 1 GB file, 16 threads, 1 MB transfers, 120 s).
type SeqIO struct {
	FS        vfsapi.FileSystem
	Dir       string
	Threads   int
	FileSize  int64
	IOSize    int64
	Write     bool // true = Seqwrite, false = Seqread
	NewThread func() *cpu.Thread

	Stats *Stats
}

// Defaults fills unset fields with the paper's configuration.
func (w *SeqIO) Defaults(scale float64) {
	if w.Threads == 0 {
		w.Threads = 16
	}
	if w.FileSize == 0 {
		w.FileSize = int64(float64(1<<30) * scale)
		if w.FileSize < 8<<20 {
			w.FileSize = 8 << 20
		}
	}
	if w.IOSize == 0 {
		w.IOSize = 1 << 20
	}
	if w.Stats == nil {
		w.Stats = NewStats()
	}
}

func (w *SeqIO) path(tid int) string {
	return fmt.Sprintf("%s/stream%02d", w.Dir, tid)
}

// Prepare creates the directory, and for Seqread pre-populates the
// per-thread files so reads hit a warm client cache (the paper's
// cached sequential read).
func (w *SeqIO) Prepare(ctx vfsapi.Ctx) error {
	if err := w.FS.Mkdir(ctx, w.Dir); err != nil && !errors.Is(err, vfsapi.ErrExist) {
		return err
	}
	if w.Write {
		return nil
	}
	for t := 0; t < w.Threads; t++ {
		h, err := w.FS.Open(ctx, w.path(t), vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			return err
		}
		per := w.FileSize / int64(w.Threads)
		for off := int64(0); off < per; off += w.IOSize {
			h.Write(ctx, off, w.IOSize)
		}
		if err := h.Fsync(ctx); err != nil {
			h.Close(ctx)
			return err
		}
		if err := h.Close(ctx); err != nil {
			return err
		}
		// Warm the cache with one full read.
		hr, err := w.FS.Open(ctx, w.path(t), vfsapi.RDONLY)
		if err != nil {
			return err
		}
		for off := int64(0); off < per; off += w.IOSize {
			hr.Read(ctx, off, w.IOSize)
		}
		hr.Close(ctx)
	}
	return nil
}

// Run spawns the streaming threads.
func (w *SeqIO) Run(g *Group, clock Clock) {
	for t := 0; t < w.Threads; t++ {
		g.Go("seqio", func(p *sim.Proc) { w.worker(p, t, clock) })
	}
}

func (w *SeqIO) worker(p *sim.Proc, tid int, clock Clock) {
	th := w.NewThread()
	ctx := ctxFor(p, th)
	per := w.FileSize / int64(w.Threads)
	for !clock.Done() {
		flags := vfsapi.RDONLY
		if w.Write {
			// Rewrite in place: truncating would discard the dirty data
			// and bypass the writeback path the benchmark exercises.
			flags = vfsapi.CREATE | vfsapi.WRONLY
		}
		h, err := w.FS.Open(ctx, w.path(tid), flags)
		if err != nil {
			w.Stats.Errors++
			return
		}
		for off := int64(0); off < per && !clock.Done(); off += w.IOSize {
			start := clock.Eng.Now()
			var moved int64
			if w.Write {
				moved, _ = h.Write(ctx, off, w.IOSize)
			} else {
				moved, _ = h.Read(ctx, off, w.IOSize)
			}
			if clock.Measuring() {
				w.Stats.Record(moved, clock.Eng.Now()-start)
			}
		}
		h.Close(ctx)
	}
}
