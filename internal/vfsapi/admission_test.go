package vfsapi_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

type admRig struct {
	eng  *sim.Engine
	cpus *cpu.CPU
	acct *cpu.Account
}

func newAdmRig() *admRig {
	eng := sim.NewEngine()
	return &admRig{
		eng:  eng,
		cpus: cpu.New(eng, model.Default(), 4),
		acct: cpu.NewAccount("adm"),
	}
}

func (r *admRig) ctx(p *sim.Proc) vfsapi.Ctx {
	return vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}
}

// holdSlots occupies all AdmissionSlots execution slots of a at time
// zero: one holder per slot admits, sleeps for hold, then runs
// release(i) (a.Release when nil).
func (r *admRig) holdSlots(t *testing.T, a *vfsapi.Admission, hold time.Duration, release func(i int)) {
	for i := 0; i < vfsapi.AdmissionSlots; i++ {
		r.eng.Go("holder", func(p *sim.Proc) {
			if err := a.Admit(r.ctx(p)); err != nil {
				t.Errorf("holder %d shed: %v", i, err)
				return
			}
			p.Sleep(hold)
			if release != nil {
				release(i)
			} else {
				a.Release()
			}
		})
	}
}

func TestAdmissionDefaults(t *testing.T) {
	r := newAdmRig()
	a := vfsapi.NewAdmission(r.eng, "p", vfsapi.AdmissionConfig{})
	if a.QueueCap() != 32 {
		t.Fatalf("default queue cap = %d, want 32", a.QueueCap())
	}
}

// Every slot held, one queue seat: the next op queues, the one after
// is shed; releasing a slot hands it to the queued op. The ledger must
// balance at every step.
func TestAdmissionShedsBeyondQueue(t *testing.T) {
	r := newAdmRig()
	a := vfsapi.NewAdmission(r.eng, "p", vfsapi.AdmissionConfig{QueueCap: 1})
	var shedErr error
	var queuedRan bool
	r.holdSlots(t, a, 10*time.Millisecond, nil)
	r.eng.Go("queued", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		if err := a.Admit(r.ctx(p)); err != nil {
			t.Errorf("queued op shed: %v", err)
			return
		}
		queuedRan = true
		a.Release()
	})
	r.eng.Go("shed", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		shedErr = a.Admit(r.ctx(p))
	})
	r.eng.Run()

	if !errors.Is(shedErr, vfsapi.ErrOverload) {
		t.Fatalf("op beyond the queue got %v, want ErrOverload", shedErr)
	}
	if !queuedRan {
		t.Fatal("queued op never admitted after release")
	}
	s := a.Stats()
	if s.Offered != 6 || s.Admitted != 5 || s.Shed != 1 {
		t.Fatalf("ledger offered/admitted/shed = %d/%d/%d, want 6/5/1", s.Offered, s.Admitted, s.Shed)
	}
	if s.Offered != s.Admitted+s.Shed+uint64(s.InFlight) {
		t.Fatalf("accounting identity broken: %+v", s)
	}
	if s.MaxQueued != 1 || s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("maxq/inflight/queued = %d/%d/%d, want 1/0/0", s.MaxQueued, s.InFlight, s.Queued)
	}
	if s.QueuedTime <= 0 {
		t.Fatal("queued op reported no queueing time")
	}
}

// The pressure callback must fire once when the queue reaches its
// high water mark (3 of 4 seats) and once when it drains empty — not
// on every admit or handoff.
func TestAdmissionPressureHysteresis(t *testing.T) {
	r := newAdmRig()
	var edges []string
	a := vfsapi.NewAdmission(r.eng, "p", vfsapi.AdmissionConfig{
		QueueCap: 4,
		OnPressure: func(high bool) {
			edges = append(edges, fmt.Sprintf("%v@%v", high, r.eng.Now()))
		},
	})
	// Holders release one by one at 10..13 ms, each handing its slot
	// to the oldest of the four waiters queued at 1..4 ms.
	r.holdSlots(t, a, 10*time.Millisecond, func(i int) {
		r.eng.After(time.Duration(i)*time.Millisecond, a.Release)
	})
	for i := 0; i < 4; i++ {
		r.eng.Go("waiter", func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			if err := a.Admit(r.ctx(p)); err != nil {
				t.Errorf("waiter %d shed: %v", i, err)
			}
		})
	}
	r.eng.Run()
	if got, want := strings.Join(edges, " "), "true@3ms false@13ms"; got != want {
		t.Fatalf("pressure edges = %q, want %q", got, want)
	}
}

// A client crash while operations are parked on the admission queue:
// every waiter is evicted with the deterministic crash error, the
// ledger accounts them as shed, and nothing stays queued.
func TestAdmissionCrashShedsQueued(t *testing.T) {
	r := newAdmRig()
	a := vfsapi.NewAdmission(r.eng, "p", vfsapi.AdmissionConfig{QueueCap: 4})
	errs := make([]error, 2)
	var shedN int
	r.holdSlots(t, a, 5*time.Millisecond, func(i int) {
		if i == 0 {
			shedN = a.ShedQueued(vfsapi.ErrCrashed)
		}
		r.eng.After(time.Millisecond, a.Release)
	})
	for i := 0; i < 2; i++ {
		r.eng.Go("waiter", func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			errs[i] = a.Admit(r.ctx(p))
		})
	}
	r.eng.Run()

	if shedN != 2 {
		t.Fatalf("ShedQueued evicted %d waiters, want 2", shedN)
	}
	for i, err := range errs {
		if !errors.Is(err, vfsapi.ErrCrashed) {
			t.Fatalf("waiter %d got %v, want ErrCrashed", i, err)
		}
	}
	s := a.Stats()
	if s.Offered != 6 || s.Admitted != 4 || s.Shed != 2 {
		t.Fatalf("ledger offered/admitted/shed = %d/%d/%d, want 6/4/2", s.Offered, s.Admitted, s.Shed)
	}
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("crash leaked state: in-flight %d queued %d, want 0/0", s.InFlight, s.Queued)
	}
}

// Regression for the slot-handoff crash race: Release hands the slot to
// the oldest waiter without decrementing inFlight, then the crash sheds
// the queue before the grantee ever runs. The evicted grantee must
// return the slot — otherwise the crash permanently leaks an execution
// slot and the tenant's concurrency shrinks forever.
func TestAdmissionCrashAfterHandoffLeaksNoSlot(t *testing.T) {
	r := newAdmRig()
	a := vfsapi.NewAdmission(r.eng, "p", vfsapi.AdmissionConfig{QueueCap: 4})
	errs := make([]error, 2)
	var lateErr error
	var lateAt time.Duration
	r.holdSlots(t, a, 5*time.Millisecond, func(i int) {
		if i > 0 {
			// The other holders keep their slots past the late op, so
			// only the handed-off slot can admit it.
			r.eng.After(15*time.Millisecond, a.Release)
			return
		}
		// Hand the slot to the oldest waiter, then crash in the same
		// virtual instant, before the grantee resumes.
		a.Release()
		a.ShedQueued(vfsapi.ErrCrashed)
	})
	for i := 0; i < 2; i++ {
		r.eng.Go("waiter", func(p *sim.Proc) {
			p.Sleep(time.Duration(i+1) * time.Millisecond)
			errs[i] = a.Admit(r.ctx(p))
		})
	}
	r.eng.Go("late", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		lateErr = a.Admit(r.ctx(p))
		lateAt = r.eng.Now()
		if lateErr == nil {
			a.Release()
		}
	})
	r.eng.Run()

	for i, err := range errs {
		if !errors.Is(err, vfsapi.ErrCrashed) {
			t.Fatalf("waiter %d got %v, want ErrCrashed (granted slots must not survive the crash)", i, err)
		}
	}
	if lateErr != nil || lateAt != 10*time.Millisecond {
		t.Fatalf("post-crash op admitted at %v with %v, want 10ms and nil; the handed-off slot leaked", lateAt, lateErr)
	}
	s := a.Stats()
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("crash leaked state: in-flight %d queued %d, want 0/0", s.InFlight, s.Queued)
	}
	if s.Offered != s.Admitted+s.Shed {
		t.Fatalf("drained ledger does not balance: %+v", s)
	}
}

// The decorator wraps every data operation in admit/release; a nil
// controller must leave the filesystem untouched.
func TestAdmittedDecorator(t *testing.T) {
	fs := memfs.New()
	if got := vfsapi.Admitted(fs, nil); got != vfsapi.FileSystem(fs) {
		t.Fatal("nil controller should return the inner filesystem")
	}
	r := newAdmRig()
	a := vfsapi.NewAdmission(r.eng, "p", vfsapi.AdmissionConfig{QueueCap: 4})
	wrapped := vfsapi.Admitted(fs, a)
	r.eng.Go("ops", func(p *sim.Proc) {
		ctx := r.ctx(p)
		h, err := wrapped.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, err := h.Write(ctx, 0, 4096); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := h.Fsync(ctx); err != nil {
			t.Errorf("fsync: %v", err)
		}
		if err := h.Close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
		if _, err := wrapped.Stat(ctx, "/f"); err != nil {
			t.Errorf("stat: %v", err)
		}
	})
	r.eng.Run()
	s := a.Stats()
	// Open, Write, Fsync, Close (admission-exempt but ledger-counted),
	// Stat: five offered, all admitted, none shed, nothing residual.
	if s.Offered != 5 || s.Admitted != 5 || s.Shed != 0 {
		t.Fatalf("decorator ledger = %+v, want 5 offered/admitted", s)
	}
	if s.InFlight != 0 || s.Queued != 0 {
		t.Fatalf("residual in-flight/queued: %+v", s)
	}
}
