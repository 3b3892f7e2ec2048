package workloads

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Diurnal shapes an arrival rate over a virtual "day": the offered
// rate swings sinusoidally between Trough×peak at the start of each
// period and the full peak rate half a period in. The zero value
// (Period 0) is a flat curve.
type Diurnal struct {
	Period time.Duration // length of one day; <= 0 disables shaping
	Trough float64       // fraction of peak at the low point, clamped to [0,1]
}

// Multiplier returns the rate multiplier in (0,1] at virtual time t.
func (d Diurnal) Multiplier(t time.Duration) float64 {
	if d.Period <= 0 {
		return 1
	}
	trough := math.Min(math.Max(d.Trough, 0), 1)
	phase := 2 * math.Pi * float64(t%d.Period) / float64(d.Period)
	return trough + (1-trough)*0.5*(1-math.Cos(phase))
}

// SLOClass is one request class with a latency objective. Weight sets
// its share of the arrival mix; Write makes it a write+fsync commit
// instead of a read.
type SLOClass struct {
	Name   string
	Target time.Duration
	Weight int
	Write  bool
}

// DefaultClasses is the standard production mix: a read-heavy
// interactive class with a tight SLO and a smaller durable-commit
// class with a looser one.
func DefaultClasses() []SLOClass {
	return []SLOClass{
		{Name: "interactive", Target: 20 * time.Millisecond, Weight: 9, Write: false},
		{Name: "commit", Target: 80 * time.Millisecond, Weight: 1, Write: true},
	}
}

// Arrival is one precomputed request of a production plan: who, when,
// what class, at which file offset. Plans are pure functions of the
// generator parameters, so the same seed always produces the same
// arrival sequence — the property the trace layer's determinism rests
// on.
type Arrival struct {
	At    time.Duration
	User  int
	Class int // index into Classes
	Off   int64
}

// ClassStats aggregates one SLO class's outcome over the measurement
// window.
type ClassStats struct {
	Name   string
	Target time.Duration
	Stats  *Stats
	// Violations counts completed requests whose latency exceeded
	// Target inside the window.
	Violations uint64
}

// Production is the production-shaped open-loop generator: a Zipf
// tenant-popularity distribution over a simulated user population,
// Poisson arrivals shaped by a diurnal curve, and per-request SLO
// classes. It extends OpenLoop from a single flat-rate stream to the
// traffic shape of a large container platform, and reports tail
// percentiles per class instead of throughput.
type Production struct {
	FS  vfsapi.FileSystem
	Dir string
	// Files is the size of the fileset users map onto (user id modulo
	// Files); popular users make popular files. Default 20.
	Files    int
	FileSize int64
	OpSize   int64 // bytes per request (default 64 KiB)
	// Users is the simulated user population size. Default 1000.
	Users int
	// ZipfS/ZipfV parameterize user popularity (rand.Zipf; S > 1,
	// V >= 1). Defaults 1.2 / 1.
	ZipfS float64
	ZipfV float64
	// PeakRate is the peak offered load in requests per second of
	// virtual time; the diurnal curve scales it down off-peak.
	PeakRate float64
	Diurnal  Diurnal
	// Classes is the SLO class mix; nil means DefaultClasses.
	Classes   []SLOClass
	Seed      int64
	NewThread func() *cpu.Thread

	// Offered counts arrivals dispatched, Completed successful
	// requests, Shed admission refusals, Failed other errors — whole
	// run, not just the window.
	Offered   uint64
	Completed uint64
	Shed      uint64
	Failed    uint64
	// PerClass is populated by Run, parallel to Classes.
	PerClass []*ClassStats
}

func (w *Production) defaults() {
	if w.Files <= 0 {
		w.Files = 20
	}
	if w.OpSize <= 0 {
		w.OpSize = 64 << 10
	}
	if w.Users <= 0 {
		w.Users = 1000
	}
	if w.ZipfS <= 1 {
		w.ZipfS = 1.2
	}
	if w.ZipfV < 1 {
		w.ZipfV = 1
	}
	if w.PeakRate <= 0 {
		w.PeakRate = 200
	}
	if len(w.Classes) == 0 {
		w.Classes = DefaultClasses()
	}
}

// Plan precomputes the arrival sequence up to the horizon: a Poisson
// process at PeakRate thinned by the diurnal multiplier, each accepted
// arrival assigned a Zipf-drawn user, a weight-drawn SLO class, and an
// OpSize-aligned offset. Deterministic in (parameters, Seed).
func (w *Production) Plan(until time.Duration) []Arrival {
	w.defaults()
	rng := rand.New(rand.NewSource(w.Seed))
	zipf := rand.NewZipf(rng, w.ZipfS, w.ZipfV, uint64(w.Users-1))
	totalWeight := 0
	for _, c := range w.Classes {
		if c.Weight <= 0 {
			continue
		}
		totalWeight += c.Weight
	}
	if totalWeight == 0 {
		totalWeight = 1
	}
	slots := int64(1)
	if w.FileSize > w.OpSize {
		slots = w.FileSize / w.OpSize
	}
	var plan []Arrival
	var t time.Duration
	for {
		gap := time.Duration(rng.ExpFloat64() / w.PeakRate * float64(time.Second))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		t += gap
		if t >= until {
			return plan
		}
		// Thinning: off-peak arrivals are dropped with probability
		// 1 - multiplier, turning the homogeneous process into the
		// diurnal-shaped one.
		if rng.Float64() > w.Diurnal.Multiplier(t) {
			continue
		}
		cls, pick := 0, rng.Intn(totalWeight)
		for i, c := range w.Classes {
			if c.Weight <= 0 {
				continue
			}
			pick -= c.Weight
			if pick < 0 {
				cls = i
				break
			}
		}
		plan = append(plan, Arrival{
			At:    t,
			User:  int(zipf.Uint64()),
			Class: cls,
			Off:   rng.Int63n(slots) * w.OpSize,
		})
	}
}

// Run precomputes the plan to the clock deadline and starts the
// dispatcher, which spawns one short-lived thread per arrival. Like
// OpenLoop, the loop is open: shed requests are counted, not retried.
func (w *Production) Run(g *Group, clock Clock) {
	w.defaults()
	w.PerClass = make([]*ClassStats, len(w.Classes))
	for i, c := range w.Classes {
		w.PerClass[i] = &ClassStats{Name: c.Name, Target: c.Target, Stats: NewStats()}
	}
	start := clock.Eng.Now()
	plan := w.Plan(clock.Stop - start)
	g.Go("production-dispatch", func(p *sim.Proc) {
		for _, a := range plan {
			if gap := start + a.At - clock.Eng.Now(); gap > 0 {
				p.Sleep(gap)
			}
			if clock.Done() {
				return
			}
			w.Offered++
			g.Go("production-req", func(rp *sim.Proc) {
				w.request(rp, clock, a)
			})
		}
	})
}

func (w *Production) request(p *sim.Proc, clock Clock, a Arrival) {
	th := w.NewThread()
	ctx := ctxFor(p, th)
	cls := w.Classes[a.Class]
	path := fileName(w.Dir, a.User%w.Files)
	start := clock.Eng.Now()
	measuring := clock.Measuring()
	var err error
	if cls.Write {
		var h vfsapi.Handle
		h, err = w.FS.Open(ctx, path, vfsapi.WRONLY|vfsapi.CREATE)
		if err == nil {
			_, err = h.Write(ctx, a.Off, w.OpSize)
			if err == nil {
				err = h.Fsync(ctx)
			}
			h.Close(ctx)
		}
	} else {
		var h vfsapi.Handle
		h, err = w.FS.Open(ctx, path, vfsapi.RDONLY)
		if err == nil {
			_, err = h.Read(ctx, a.Off, w.OpSize)
			h.Close(ctx)
		}
	}
	if err != nil {
		if errors.Is(err, vfsapi.ErrOverload) {
			w.Shed++
		} else {
			w.Failed++
		}
		return
	}
	w.Completed++
	if measuring {
		lat := clock.Eng.Now() - start
		st := w.PerClass[a.Class]
		st.Stats.Record(w.OpSize, lat)
		if cls.Target > 0 && lat > cls.Target {
			st.Violations++
		}
	}
}
