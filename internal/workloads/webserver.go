package workloads

import (
	"errors"
	"math/rand"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Webserver emulates the Filebench webserver personality: threads read
// whole small files (16 KB mean) and periodically append to a shared
// log (paper settings: 50 threads, 200K files on ext4/RAID0).
type Webserver struct {
	FS           vfsapi.FileSystem
	Dir          string
	Threads      int
	Files        int
	MeanFileSize int64
	LogAppend    int64
	NewThread    func() *cpu.Thread
	Seed         int64

	Stats *Stats
}

// Defaults fills unset fields, scaled from the paper's configuration.
func (w *Webserver) Defaults(scale float64) {
	if w.Threads == 0 {
		w.Threads = 50
	}
	if w.Files == 0 {
		w.Files = int(200000 * scale)
		if w.Files < 100 {
			w.Files = 100
		}
	}
	if w.MeanFileSize == 0 {
		w.MeanFileSize = 16 << 10
	}
	if w.LogAppend == 0 {
		w.LogAppend = 16 << 10
	}
	if w.Stats == nil {
		w.Stats = NewStats()
	}
}

// Prepare creates the fileset and the log.
func (w *Webserver) Prepare(ctx vfsapi.Ctx) error {
	if err := w.FS.Mkdir(ctx, w.Dir); err != nil && !errors.Is(err, vfsapi.ErrExist) {
		return err
	}
	rng := rand.New(rand.NewSource(w.Seed))
	for i := 0; i < w.Files; i++ {
		h, err := w.FS.Open(ctx, fileName(w.Dir, i), vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			return err
		}
		h.Write(ctx, 0, sizedRand(rng, w.MeanFileSize))
		if err := h.Close(ctx); err != nil {
			return err
		}
	}
	h, err := w.FS.Open(ctx, w.Dir+"/weblog", vfsapi.CREATE|vfsapi.WRONLY)
	if err != nil {
		return err
	}
	return h.Close(ctx)
}

// Run spawns the webserver threads.
func (w *Webserver) Run(g *Group, clock Clock) {
	for t := 0; t < w.Threads; t++ {
		g.Go("webserver", func(p *sim.Proc) { w.worker(p, t, clock) })
	}
}

func (w *Webserver) worker(p *sim.Proc, tid int, clock Clock) {
	th := w.NewThread()
	ctx := ctxFor(p, th)
	rng := rand.New(rand.NewSource(StreamSeed(w.Seed, "webserver", tid)))
	for !clock.Done() {
		start := clock.Eng.Now()
		var moved int64
		// Ten whole-file reads, then one log append (the Filebench
		// webserver flow).
		for r := 0; r < 10 && !clock.Done(); r++ {
			path := fileName(w.Dir, rng.Intn(w.Files))
			h, err := w.FS.Open(ctx, path, vfsapi.RDONLY)
			if err != nil {
				w.Stats.Errors++
				continue
			}
			got, _ := h.Read(ctx, 0, h.Size())
			moved += got
			h.Close(ctx)
		}
		h, err := w.FS.Open(ctx, w.Dir+"/weblog", vfsapi.WRONLY|vfsapi.APPEND)
		if err == nil {
			h.Append(ctx, w.LogAppend)
			moved += w.LogAppend
			h.Close(ctx)
		} else {
			w.Stats.Errors++
		}
		if clock.Measuring() {
			w.Stats.Record(moved, clock.Eng.Now()-start)
		}
	}
}
