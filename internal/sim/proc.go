package sim

import "time"

// Proc is a simulated process: a coroutine that runs only when the
// engine loop resumes it and yields back to the loop whenever it blocks
// on a simulated primitive. All Proc methods must be called from the
// process itself.
type Proc struct {
	eng  *Engine
	name string
	id   int
	// next resumes the process's coroutine until it yields or returns;
	// only the engine loop calls it. yield, called only by the process,
	// hands control back to the loop.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// pendingWake guards the one-pending-wake invariant of the engine.
	pendingWake bool

	// lock is the process's request while it waits for a Mutex.
	lock lockRequest
	// wait is the process's request while it waits on a WaitQueue.
	wait waitRequest
}

// Name returns the debug name given to Go.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id assigned by the engine.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Park hands control back to the engine and blocks until the wake that
// another component arranged with Engine.ScheduleWakeAfter(p, d) fires.
// It is the block half of the Park/ScheduleWakeAfter pair for building
// custom primitives; the caller is responsible for ensuring someone
// will wake the process.
func (p *Proc) Park() { p.park() }

// park hands control back to the engine and blocks until resumed.
//
// Fast path: before yielding to the engine loop, the parking process
// executes elidable pending events inline — engine callbacks, and its
// own wake. These are exactly the events the loop would process next,
// popped in identical queue order with identical clock, trace, and seq
// effects, so the inline path is indistinguishable from the parked one
// except in wall-clock cost. An event that resumes a different process
// is never elidable: the process yields, and the loop pops that event
// and resumes the other process, so every switch between processes
// takes the one path through the loop. Inline execution also stops at
// the engine's RunUntil deadline, and when the queue drains.
func (p *Proc) park() {
	e := p.eng
	for {
		top, lane := e.events.peek()
		if top == nil || e.deadline >= 0 && top.at > e.deadline {
			break
		}
		if top.fn == nil && top.p != p {
			break
		}
		ev := e.events.pop(lane)
		if ev.at > e.now {
			e.now = ev.at
		}
		e.cur = ev.seq
		if ev.fn != nil {
			e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
			ev.fn()
			continue
		}
		// Own wake reached: resume inline, never having parked.
		p.pendingWake = false
		e.trace(TraceEvent{At: e.now, Kind: TraceResume, Proc: p.name, ProcID: p.id})
		return
	}
	p.yield(struct{}{})
}

// ReportWait reports a wait interval that ended at the current virtual
// time to the engine's wait observer, if one is installed. Primitives
// call it after the fact — once the blocked process has resumed and
// knows how long it waited — so reporting never interacts with the
// park/wake machinery.
func (p *Proc) ReportWait(kind, resource, holder string, holderID int, dur time.Duration) {
	if p.eng.waitObs == nil || dur <= 0 {
		return
	}
	p.eng.waitObs(p, kind, resource, holder, holderID, p.eng.now-dur, dur)
}

// Sleep advances this process's virtual time by d without consuming any
// simulated resource.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		d = 0
	}
	p.eng.scheduleWake(p, p.eng.now+d)
	p.park()
}

// Yield reschedules the process at the current time, letting any other
// runnable work at the same timestamp execute first. When no such work
// exists the park/resume round trip is elided entirely.
func (p *Proc) Yield() {
	p.eng.scheduleWake(p, p.eng.now)
	p.park()
}
