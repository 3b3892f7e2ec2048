package experiments

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
	"repro/internal/workloads"
)

// TestGoldenTraceDeterminism runs a small mixed workload — a Danaus
// Fileserver container next to a kernel-filesystem RandomIO neighbour —
// twice and requires the full engine event trace, the kernel lock
// statistics and the per-core utilization to be identical. This guards
// the hot-path optimizations (quantum coalescing, inline event
// execution, coroutine proc switches) at the strongest granularity: not
// just equal results, but an identical event-for-event schedule.
func TestGoldenTraceDeterminism(t *testing.T) {
	scale := Scale{Factor: 0.02}
	type outcome struct {
		trace []sim.TraceEvent
		locks sim.LockStats
		util  []time.Duration
		end   time.Duration
	}
	run := func() outcome {
		r := newRig(4, scale.Params(), false, nil)
		var o outcome
		r.tb.Eng.SetTracer(func(ev sim.TraceEvent) { o.trace = append(o.trace, ev) })
		cont := r.flsContainer(0, core.ConfigD, scale)
		fls := newFileserver(cont, scale, 7)
		nbrPool := r.tb.NewPool("nbr", cpu.MaskRange(2, 4), scale.PoolMem())
		rnd := &workloads.RandomIO{
			FS:         kernelLocalFS(r.tb),
			Path:       "/rndfile",
			NewThread:  func() *cpu.Thread { return r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask) },
			Seed:       3,
			LockStress: r.tb.Kernel.SmallOpLockStress,
		}
		rnd.Defaults(scale.Factor)
		r.runMaster(func(p *sim.Proc) {
			prepare(p, r.tb.Eng,
				func(pp *sim.Proc) {
					ctx := vfsapi.Ctx{P: pp, T: cont.NewThread()}
					if err := fls.Prepare(ctx); err != nil {
						panic(err)
					}
				},
				func(pp *sim.Proc) {
					ctx := vfsapi.Ctx{P: pp, T: r.tb.CPU.NewThread(nbrPool.Acct, nbrPool.Mask)}
					if err := rnd.Prepare(ctx); err != nil {
						panic(err)
					}
				})
			clock := scale.Clock(r.tb.Eng)
			g := workloads.NewGroup(r.tb.Eng)
			fls.Run(g, clock)
			rnd.Run(g, clock)
			g.Wait(p)
		})
		o.locks = r.tb.Kernel.LockStats()
		o.util = r.tb.CPU.UtilSnapshot()
		o.end = r.tb.Eng.Now()
		return o
	}

	a, b := run(), run()
	if len(a.trace) == 0 {
		t.Fatal("tracer observed no events")
	}
	if len(a.trace) != len(b.trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("trace diverges at event %d: %+v vs %+v", i, a.trace[i], b.trace[i])
		}
	}
	if a.locks != b.locks {
		t.Errorf("lock stats differ:\n  %+v\n  %+v", a.locks, b.locks)
	}
	if !reflect.DeepEqual(a.util, b.util) {
		t.Errorf("core utilization differs:\n  %v\n  %v", a.util, b.util)
	}
	if a.end != b.end {
		t.Errorf("end times differ: %v vs %v", a.end, b.end)
	}
}
