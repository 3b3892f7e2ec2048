package workloads

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// The probe kit: the victim and bystander probes of the containment
// experiments (fault, crash, overload and monitor sweeps) and the
// fuzzer. Each probe is one thread issuing a fixed op sequence, so a
// sweep row is a pure function of the stack under it.

// WriteFile creates path on fs, appends size bytes in chunk-sized
// Appends (one Append of size when chunk is 0), fsyncs and closes it.
// The last Append is a whole chunk, rounding the file up to the next
// chunk boundary, unless clamp trims it to size. Errors panic:
// preparation runs before any fault window, so a failure is a broken
// experiment.
func WriteFile(ctx vfsapi.Ctx, fs vfsapi.FileSystem, path string, size, chunk int64, clamp bool) {
	if chunk <= 0 {
		chunk = size
	}
	h, err := fs.Open(ctx, path, vfsapi.CREATE|vfsapi.WRONLY)
	if err != nil {
		panic(err)
	}
	for written := int64(0); written < size; written += chunk {
		n := chunk
		if clamp && size-written < n {
			n = size - written
		}
		if _, err := h.Append(ctx, n); err != nil {
			panic(err)
		}
	}
	if err := h.Fsync(ctx); err != nil {
		panic(err)
	}
	if err := h.Close(ctx); err != nil {
		panic(err)
	}
}

// AckedLoss returns how many fsync-acknowledged bytes a durable size
// fails to cover (zero when it covers them all) — the durability
// contract both the sweeps and the fuzzer check.
func AckedLoss(acked, durable int64) int64 {
	if acked > durable {
		return acked - durable
	}
	return 0
}

// walOpSize is the bytes WALWriter appends per iteration.
const walOpSize = 64 << 10

// WALWriter is the durability probe: a thread appending 64 KiB to Path
// and fsyncing, over and over. A successful fsync drains every dirty
// extent, so everything appended so far becomes Acked. A failed
// iteration sleeps 1 ms and, with Reopen, reopens the log — a crashed
// client invalidates its handles — taking the reopened size as the new
// append frontier, so appends the crash discarded never count as acked.
type WALWriter struct {
	FS        vfsapi.FileSystem
	Path      string
	NewThread func() *cpu.Thread
	Reopen    bool
	// Stats records completed iterations inside the measurement window
	// and failed ones as errors; Run creates it when nil.
	Stats *Stats
	// Watch, when set, is called before each iteration; the function it
	// returns is called with the completion time if the iteration
	// succeeds.
	Watch func() func(done time.Duration)

	Acked int64 // fsync-acknowledged bytes
	size  int64 // bytes appended through the current handle
}

// Create makes the empty log file.
func (w *WALWriter) Create(ctx vfsapi.Ctx) {
	h, err := w.FS.Open(ctx, w.Path, vfsapi.CREATE|vfsapi.WRONLY)
	if err != nil {
		panic(err)
	}
	if err := h.Close(ctx); err != nil {
		panic(err)
	}
}

// Run starts the writer thread.
func (w *WALWriter) Run(g *Group, clock Clock) {
	if w.Stats == nil {
		w.Stats = NewStats()
	}
	g.Go("wal-writer", func(p *sim.Proc) {
		ctx := ctxFor(p, w.NewThread())
		h, err := w.FS.Open(ctx, w.Path, vfsapi.WRONLY)
		if err != nil {
			panic(err)
		}
		defer func() { h.Close(ctx) }()
		for !clock.Done() {
			var ok func(time.Duration)
			if w.Watch != nil {
				ok = w.Watch()
			}
			start := p.Now()
			_, err := h.Append(ctx, walOpSize)
			if err == nil {
				w.size += walOpSize
				err = h.Fsync(ctx)
			}
			now := p.Now()
			if err != nil {
				if clock.Measuring() {
					w.Stats.Errors++
				}
				p.Sleep(time.Millisecond)
				if w.Reopen {
					if nh, oerr := w.FS.Open(ctx, w.Path, vfsapi.WRONLY); oerr == nil {
						h.Close(ctx)
						h = nh
						w.size = nh.Size()
					}
				}
				continue
			}
			w.Acked = w.size
			if ok != nil {
				ok(now)
			}
			if clock.Measuring() {
				w.Stats.Record(walOpSize, now-start)
			}
		}
	})
}

// Remount returns the log size seen through a fresh read-only handle
// (0 when the open fails): the durable frontier an application would
// see on reopen after a crash.
func (w *WALWriter) Remount(ctx vfsapi.Ctx) int64 {
	h, err := w.FS.Open(ctx, w.Path, vfsapi.RDONLY)
	if err != nil {
		return 0
	}
	defer h.Close(ctx)
	return h.Size()
}

// SeqReader is the read probe: a thread named Name reading Path
// sequentially in Chunk-sized reads, wrapping at Size, until the clock
// stops. A failed read sleeps 1 ms and, with Reopen, reopens the file;
// either way the offset moves on.
type SeqReader struct {
	Name      string
	FS        vfsapi.FileSystem
	Path      string
	Size      int64
	Chunk     int64
	NewThread func() *cpu.Thread
	Reopen    bool
	// Stats, when set, records reads as WALWriter does; Watch behaves
	// as on WALWriter, per read.
	Stats *Stats
	Watch func() func(done time.Duration)
}

// Run starts the reader thread.
func (r *SeqReader) Run(g *Group, clock Clock) {
	g.Go(r.Name, func(p *sim.Proc) {
		ctx := ctxFor(p, r.NewThread())
		h, err := r.FS.Open(ctx, r.Path, vfsapi.RDONLY)
		if err != nil {
			panic(err)
		}
		defer func() { h.Close(ctx) }()
		var off int64
		for !clock.Done() {
			var ok func(time.Duration)
			if r.Watch != nil {
				ok = r.Watch()
			}
			start := p.Now()
			n, err := h.Read(ctx, off, r.Chunk)
			now := p.Now()
			if err != nil {
				if r.Stats != nil && clock.Measuring() {
					r.Stats.Errors++
				}
				p.Sleep(time.Millisecond)
				if r.Reopen {
					if nh, oerr := r.FS.Open(ctx, r.Path, vfsapi.RDONLY); oerr == nil {
						h.Close(ctx)
						h = nh
					}
				}
			} else {
				if ok != nil {
					ok(now)
				}
				if r.Stats != nil && clock.Measuring() {
					r.Stats.Record(n, now-start)
				}
			}
			off += r.Chunk
			if off >= r.Size {
				off = 0
			}
		}
	})
}
