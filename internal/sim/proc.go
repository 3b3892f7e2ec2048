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
	// unit is the callback of a queued Resource claim (AcquireOrQueue),
	// nil for a process that parks until the unit is handed over.
	unit func()
	// parks counts the process's parks, each ended by one resume.
	parks int
}

// Name returns the debug name given to Go.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id assigned by the engine.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Parks returns how many times p has parked. Each park ends in exactly
// one resume — by its wake event, inline, or through ResumeHere — so
// tests read it to pin how often a primitive resumes its process.
func (p *Proc) Parks() int { return p.parks }

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
//
// A callback may hand control to a process with ResumeHere. If it hands
// it to p — or p handed it to itself before parking — park returns at
// once; if to another process, p yields and the loop resumes that one
// within the same event.
func (p *Proc) park() {
	e := p.eng
	p.parks++
	for e.handoff == nil {
		top := e.events.peek(e.deadline)
		if top == nil || top.fn == nil && top.p != p {
			break
		}
		ev := e.events.pop()
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
	if e.handoff == p {
		e.handoff = nil
		return
	}
	p.yield(struct{}{})
}

// ResumeHere resumes p, which is parked with no pending wake, within the
// current event: once the running callback returns, control passes to p
// before the engine runs any other event. It lets a callback that acts
// for a parked process at the event where the process would have
// resumed — the decision between two steps of a continuation run — hand
// control back only when the process must act itself, without a wake
// event. It pushes no event and emits no trace event. Called from p's
// own context before p parks, it makes that park return at once.
// ResumeHere panics if p has a pending wake, has finished, or another
// hand-back is already set.
func (p *Proc) ResumeHere() {
	e := p.eng
	switch {
	case p.pendingWake:
		panic("sim: ResumeHere on proc " + p.name + " with a pending wake")
	case p.done:
		panic("sim: ResumeHere on finished proc " + p.name)
	case e.handoff != nil:
		panic("sim: ResumeHere on proc " + p.name + " while " + e.handoff.name + " is being resumed")
	}
	e.handoff = p
}

// ReportWait reports a wait interval that ended at the current virtual
// time to the engine's observer, if one is installed. Primitives call it
// after the fact — once the blocked process has resumed and knows how
// long it waited — so reporting never interacts with the park/wake
// machinery.
func (p *Proc) ReportWait(kind, resource, holder string, holderID int, dur time.Duration) {
	if p.eng.obs != nil && dur > 0 {
		p.reportWait(kind, resource, holder, holderID, dur)
	}
}

// reportWait is ReportWait's call of the observer, kept out of line so
// that the unobserved check inlines into every primitive.
//
//go:noinline
func (p *Proc) reportWait(kind, resource, holder string, holderID int, dur time.Duration) {
	p.eng.obs.Wait(p.id, kind, resource, holder, holderID, p.eng.now-dur, dur)
}

// ReportSlice reports a CPU slice of p that ended at the current virtual
// time to the engine's observer, if one is installed: p ran on core for
// dur, charged to account as kind. It is the slice's one report; the
// observer counts it as p's "run" wait too.
func (p *Proc) ReportSlice(core int, account, kind string, dur time.Duration) {
	if p.eng.obs != nil {
		p.reportSlice(core, account, kind, dur)
	}
}

// reportSlice is ReportSlice's call of the observer, out of line like
// reportWait.
//
//go:noinline
func (p *Proc) reportSlice(core int, account, kind string, dur time.Duration) {
	p.eng.obs.Slice(p.id, core, account, kind, p.eng.now-dur, dur)
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
