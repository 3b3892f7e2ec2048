package vfsapi

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// AdmissionSlots is the number of a tenant's operations that execute
// at once under admission control.
const AdmissionSlots = 4

// AdmissionConfig bounds the concurrency a tenant may push into the
// client stack. AdmissionSlots operations execute at once; up to
// QueueCap more park on a FIFO queue waiting for a slot; anything
// beyond that is shed immediately with ErrOverload. OnPressure fires
// true when the queue reaches 3/4 of QueueCap and false when it drains
// empty — the testbed uses it to flip the kernel into brownout.
type AdmissionConfig struct {
	QueueCap   int
	OnPressure func(bool)
}

// AdmissionStats is a point-in-time snapshot of a controller.
// Offered == Admitted + Shed + queued + InFlight-not-yet-finished is
// not an identity of the snapshot alone; the invariant checked by the
// fuzzer is Offered == Admitted + Shed once the run has drained
// (InFlight covers long-lived background ops still mid-flight).
type AdmissionStats struct {
	Offered    uint64
	Admitted   uint64
	Shed       uint64
	InFlight   int
	Queued     int
	MaxQueued  int
	QueuedTime time.Duration
}

// Admission is a bounded admission controller for one tenant facade.
// All state transitions happen in virtual time on the single engine
// thread, so counters and the parked-waiter list stay consistent
// without locking: the region between a counter update and the Wait
// call runs atomically.
type Admission struct {
	eng       *sim.Engine
	cfg       AdmissionConfig
	q         *sim.WaitQueue
	inFlight  int
	queued    int
	pressured bool
	highWater int // queue depth that raises pressure

	// crashEpoch increments on every ShedQueued flush; a parked waiter
	// that wakes into a newer epoch was evicted by a crash, not handed a
	// slot. grants counts slots handed to waiters by Release but not yet
	// consumed — an evicted waiter holding one returns it to inFlight so
	// the crash cannot leak execution slots.
	crashEpoch uint64
	grants     int
	crashErr   error

	offered    uint64
	admitted   uint64
	shed       uint64
	maxQueued  int
	queuedTime time.Duration
}

// NewAdmission creates a controller on e. A non-positive QueueCap is
// clamped to 32; the high water mark is 3/4 of it, at least 1.
func NewAdmission(e *sim.Engine, name string, cfg AdmissionConfig) *Admission {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 32
	}
	return &Admission{
		eng: e, cfg: cfg, q: sim.NewWaitQueue(e, "admission:"+name),
		highWater: max(cfg.QueueCap*3/4, 1),
	}
}

// Admit claims an execution slot for the operation, parking on the
// bounded queue if all slots are busy. It returns ErrOverload without
// blocking when the queue is full. Queue time is charged to the
// caller's thread as I/O wait so it shows up in accounting and in the
// request span (via the engine's wait observer).
func (a *Admission) Admit(ctx Ctx) error {
	a.offered++
	if a.inFlight < AdmissionSlots {
		a.inFlight++
		a.admitted++
		return nil
	}
	if a.queued >= a.cfg.QueueCap {
		a.shed++
		return ErrOverload
	}
	a.queued++
	if a.queued > a.maxQueued {
		a.maxQueued = a.queued
	}
	if !a.pressured && a.queued >= a.highWater {
		a.pressured = true
		if a.cfg.OnPressure != nil {
			a.cfg.OnPressure(true)
		}
	}
	epoch := a.crashEpoch
	start := a.eng.Now()
	a.q.Wait(ctx.P)
	wait := a.eng.Now() - start
	a.queuedTime += wait
	if ctx.T != nil {
		ctx.T.Account().AddIOWait(wait)
	}
	if a.crashEpoch != epoch {
		// Evicted by ShedQueued: the client died while we were parked.
		// If a releasing op had already handed us its slot, return it —
		// nobody will run on it.
		if a.grants > 0 {
			a.grants--
			a.inFlight--
		}
		a.shed++
		return a.crashErr
	}
	// The releasing operation handed us its slot (see Release): inFlight
	// was not decremented there, so it already counts this operation.
	if a.grants > 0 {
		a.grants--
	}
	a.admitted++
	return nil
}

// ShedQueued evicts every parked waiter with the given deterministic
// error (ErrCrashed when the tenant's client dies mid-queue) and
// returns how many it evicted. Slots already handed to waiters by
// Release are reclaimed by the waiters as they wake, so the bounded
// queue and in-flight accounting survive the crash intact; operations
// arriving after the flush admit normally and fail inside the crashed
// client instead.
func (a *Admission) ShedQueued(err error) int {
	if err == nil {
		err = ErrCrashed
	}
	n := a.queued
	if n == 0 {
		return 0
	}
	a.crashEpoch++
	a.crashErr = err
	a.queued = 0
	if a.pressured {
		a.pressured = false
		if a.cfg.OnPressure != nil {
			a.cfg.OnPressure(false)
		}
	}
	a.q.Broadcast()
	return n
}

// Release returns the slot. If a waiter is queued the slot transfers
// directly to the oldest one (no barging: a new arrival cannot steal
// ahead of parked waiters because inFlight never dips below max while
// the queue drains).
func (a *Admission) Release() {
	if a.queued > 0 && a.q.Signal() {
		a.queued--
		a.grants++
		if a.pressured && a.queued == 0 {
			a.pressured = false
			if a.cfg.OnPressure != nil {
				a.cfg.OnPressure(false)
			}
		}
		return
	}
	a.inFlight--
}

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Offered:    a.offered,
		Admitted:   a.admitted,
		Shed:       a.shed,
		InFlight:   a.inFlight,
		Queued:     a.queued,
		MaxQueued:  a.maxQueued,
		QueuedTime: a.queuedTime,
	}
}

// QueueCap returns the configured queue bound (for invariant checks).
func (a *Admission) QueueCap() int { return a.cfg.QueueCap }

// CheckBound reports a bounded-queue breach: more than queueCap waiters
// parked at once. The overload sweep and the fuzzer both check it.
func (s AdmissionStats) CheckBound(queueCap int) error {
	if s.MaxQueued > queueCap {
		return fmt.Errorf("max queued %d exceeds cap %d", s.MaxQueued, queueCap)
	}
	return nil
}

// CheckLedger reports an admission-accounting breach: an offered
// operation that is neither admitted, shed, nor still in flight.
func (s AdmissionStats) CheckLedger() error {
	if s.Offered != s.Admitted+s.Shed+uint64(s.InFlight) {
		return fmt.Errorf("offered %d != admitted %d + shed %d + in-flight %d",
			s.Offered, s.Admitted, s.Shed, s.InFlight)
	}
	return nil
}

// Admitted wraps fs so every operation first claims a slot from ctl
// and releases it when the operation returns. Operations shed by the
// controller fail fast with ErrOverload before touching the inner
// stack. A nil controller returns fs unchanged. Install it inside
// Traced so queue time lands in the request span.
func Admitted(fs FileSystem, ctl *Admission) FileSystem {
	if ctl == nil || fs == nil {
		return fs
	}
	return Wrap[struct{}](fs, ctl, nil)
}

// Do runs c in an execution slot: Admit, c.Do, Release. Close always
// runs: shedding it would leak the inner handle, and a tenant that
// cannot close files cannot shed load either. It is counted as offered
// and admitted but takes no slot, so it never queues or sheds.
func (a *Admission) Do(ctx Ctx, c Call, _ struct{}) (Result, error) {
	if c.Kind == OpClose {
		a.offered++
		a.admitted++
		return c.Do(ctx)
	}
	if err := a.Admit(ctx); err != nil {
		return Result{}, err
	}
	r, err := c.Do(ctx)
	a.Release()
	return r, err
}
