package workloads

import (
	"errors"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Fileserver emulates the Filebench fileserver personality: a pool of
// worker threads performing whole-file writes, whole-file reads,
// appends, stats and deletes over a directory of medium-size files
// (paper settings: 5 MB mean size, 1000 files, 50 threads, 120 s).
type Fileserver struct {
	// FS is the filesystem under test (a Table 1 configuration).
	FS vfsapi.FileSystem
	// Dir is the working directory inside FS.
	Dir string
	// Threads is the worker count (Filebench default 50).
	Threads int
	// Files is the fileset size.
	Files int
	// MeanFileSize is the mean file size.
	MeanFileSize int64
	// IOSize is the transfer unit (Filebench default 1 MB writes).
	IOSize int64
	// AppendSize is the mean append size (Filebench default 16 KB).
	AppendSize int64
	// NewThread supplies a pinned CPU thread per worker.
	NewThread func() *cpu.Thread
	// Seed makes the instance deterministic.
	Seed int64

	// Stats collects measured operations.
	Stats *Stats
}

// Defaults fills unset fields with the paper's configuration scaled by
// the given factor (1.0 = paper scale).
func (w *Fileserver) Defaults(scale float64) {
	if w.Threads == 0 {
		// The Filebench default is 50 threads over 1000 files; the
		// thread count scales with the fileset so the per-file
		// contention of the personality is preserved at small scale.
		w.Threads = int(50 * scale)
		if w.Threads < 8 {
			w.Threads = 8
		}
	}
	if w.Files == 0 {
		w.Files = int(1000 * scale)
		if w.Files < 10 {
			w.Files = 10
		}
	}
	if w.MeanFileSize == 0 {
		w.MeanFileSize = 5 << 20
	}
	if w.IOSize == 0 {
		w.IOSize = 1 << 20
	}
	if w.AppendSize == 0 {
		w.AppendSize = 16 << 10
	}
	if w.Stats == nil {
		w.Stats = NewStats()
	}
}

// Prepare creates the initial fileset (charged to the caller thread).
func (w *Fileserver) Prepare(ctx vfsapi.Ctx) error {
	if err := w.FS.Mkdir(ctx, w.Dir); err != nil && !errors.Is(err, vfsapi.ErrExist) {
		return err
	}
	rng := rand.New(rand.NewSource(w.Seed))
	for i := 0; i < w.Files; i++ {
		h, err := w.FS.Open(ctx, fileName(w.Dir, i), vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			return err
		}
		size := sizedRand(rng, w.MeanFileSize)
		for off := int64(0); off < size; off += w.IOSize {
			n := w.IOSize
			if off+n > size {
				n = size - off
			}
			if _, err := h.Write(ctx, off, n); err != nil {
				h.Close(ctx)
				return err
			}
		}
		if err := h.Close(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Run spawns the worker threads into g; they loop until clock.Done().
func (w *Fileserver) Run(g *Group, clock Clock) {
	for t := 0; t < w.Threads; t++ {
		g.Go("fileserver", func(p *sim.Proc) {
			w.worker(p, t, clock)
		})
	}
}

// worker runs the Filebench fileserver flow: each iteration deletes and
// recreates a file with a whole-file write, appends to another, reads a
// whole file back, and stats a fourth — the personality's exact op
// sequence, giving roughly equal read and write volume.
func (w *Fileserver) worker(p *sim.Proc, tid int, clock Clock) {
	th := w.NewThread()
	ctx := ctxFor(p, th)
	rng := rand.New(rand.NewSource(StreamSeed(w.Seed, "fileserver", tid)))
	for !clock.Done() {
		start := clock.Eng.Now()
		var moved int64

		// createfile + writewholefile + closefile.
		path := fileName(w.Dir, rng.Intn(w.Files))
		w.FS.Unlink(ctx, path)
		if h, err := w.FS.Open(ctx, path, vfsapi.CREATE|vfsapi.WRONLY); err == nil {
			size := sizedRand(rng, w.MeanFileSize)
			for off := int64(0); off < size; off += w.IOSize {
				n := w.IOSize
				if off+n > size {
					n = size - off
				}
				h.Write(ctx, off, n)
				moved += n
			}
			h.Close(ctx)
		} else {
			w.fail()
		}

		// openfile + appendfilerand + closefile.
		path = fileName(w.Dir, rng.Intn(w.Files))
		if h, err := w.FS.Open(ctx, path, vfsapi.WRONLY|vfsapi.APPEND); err == nil {
			n := sizedRand(rng, w.AppendSize)
			h.Append(ctx, n)
			moved += n
			h.Close(ctx)
		} else {
			w.fail()
		}

		// openfile + readwholefile + closefile.
		path = fileName(w.Dir, rng.Intn(w.Files))
		if h, err := w.FS.Open(ctx, path, vfsapi.RDONLY); err == nil {
			size := h.Size()
			for off := int64(0); off < size; off += w.IOSize {
				got, _ := h.Read(ctx, off, w.IOSize)
				moved += got
				if got == 0 {
					break
				}
			}
			h.Close(ctx)
		} else {
			w.fail()
		}

		// statfile.
		if _, err := w.FS.Stat(ctx, fileName(w.Dir, rng.Intn(w.Files))); err != nil {
			w.fail()
		}

		if clock.Measuring() {
			w.Stats.Record(moved, clock.Eng.Now()-start)
		}
	}
}

func (w *Fileserver) fail() { w.Stats.Errors++ }
