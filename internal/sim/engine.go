//go:build go1.23

// The module declares go 1.22; the constraint above raises the language
// version of this file alone to the one that added package iter.

// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock over a queue of pending events.
// Simulated processes (Proc) are coroutines (iter.Pull) that the engine
// loop resumes and that yield back to it whenever they block on a
// simulated primitive (Sleep, Mutex, WaitQueue, Resource). Every switch
// between two processes goes through the loop: the parking process
// yields, and the loop pops the next event and resumes its process.
// Exactly one of the loop and the processes runs at any instant, so
// simulations are fully deterministic: two runs with the same seeds
// produce identical event orders and identical virtual timestamps.
package sim

import (
	"fmt"
	"iter"
	"time"
)

// Engine is a discrete-event simulator. The zero value is not usable;
// construct one with NewEngine.
type Engine struct {
	now    time.Duration
	seq    uint64
	events eventQueue
	// cur is the seq of the event being run, set wherever one is popped
	// (RunUntil and Proc.park). A timeout callback compares it with the
	// seq its wait armed, so a stale timeout of an earlier wait stays a
	// no-op even when it falls due at the same instant as the current one.
	cur uint64

	// deadline is the bound of the RunUntil call currently draining the
	// queue (negative: run to exhaustion). Processes consult it when
	// executing elidable events inline — see Proc.park — so inline
	// execution never runs past the engine loop's own stopping point.
	deadline time.Duration

	liveProcs  int // processes started and not yet finished
	nextProcID int

	tracer  func(TraceEvent) // optional observer, see SetTracer
	waitObs WaitFn           // optional wait observer, see SetWaitObserver
}

// WaitFn observes one completed wait interval of a process: kind names
// the primitive ("lock", "runq", "run", "net", "osd", "mds", "disk",
// "waitq"), resource the contended object, and holder the party that
// occupied it ("" when not applicable). holderID is the process id of
// the holder when the holder is a process (0 otherwise — e.g. a
// runqueue aggressor is an account, not a process); observers use it to
// resolve the holder to the request it was serving. start is when the
// wait began; start+dur is always the current virtual time.
type WaitFn func(p *Proc, kind, resource, holder string, holderID int, start, dur time.Duration)

// SetWaitObserver installs fn as the engine's wait observer. Waits are
// reported passively — observation schedules no events and reads only
// the virtual clock — so an installed observer never perturbs the
// simulation schedule. A nil fn removes the observer.
func (e *Engine) SetWaitObserver(fn WaitFn) { e.waitObs = fn }

// HasWaitObserver reports whether a wait observer is installed. Callers
// use it to skip attribution work (e.g. scanning for the aggressor of a
// runqueue wait) that only matters when someone is listening.
func (e *Engine) HasWaitObserver() bool { return e.waitObs != nil }

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	e := &Engine{deadline: -1}
	// Pre-size the heap so steady-state event churn never grows it.
	e.events.heap = make([]event, 0, 256)
	return e
}

// Now returns the current virtual time since the start of the simulation.
func (e *Engine) Now() time.Duration { return e.now }

// LiveProcs returns the number of processes that have been started and
// have not yet returned. Useful in tests to detect leaked processes.
func (e *Engine) LiveProcs() int { return e.liveProcs }

// After schedules fn to run on the engine loop at now+d. Callbacks must
// not block on simulation primitives; spawn a Proc for that.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.push(event{at: e.now + d, fn: fn})
}

// Go starts a new simulated process running fn. The process begins
// executing at the current virtual time, after the caller next yields
// to the engine. Go may be called before Run, from engine callbacks, or
// from inside another process.
//
// fn runs as a coroutine of the goroutine that calls Run or RunUntil. A
// panic inside fn finishes the process (LiveProcs drops and a
// TraceFinish event is emitted) and is re-raised by Run, where the
// caller may recover it. A runtime.Goexit inside fn (e.g. a t.Fatal in
// a simulated process) likewise finishes the process and then ends the
// goroutine that called Run, instead of leaving the engine waiting for a
// process that will never yield.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	e.nextProcID++
	p := &Proc{eng: e, name: name, id: e.nextProcID}
	e.liveProcs++
	// No stop: a process still parked when the queue drains stays parked
	// (see Run).
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.done = true
			e.liveProcs--
			e.trace(TraceEvent{At: e.now, Kind: TraceFinish, Proc: p.name, ProcID: p.id})
		}()
		fn(p)
	})
	e.push(event{at: e.now, p: p})
	return p
}

// Run processes events until the event queue is empty. Processes that
// remain blocked on simulated primitives when the queue drains are left
// parked; LiveProcs reports them.
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil processes events with timestamps <= deadline, then sets the
// clock to deadline. A negative deadline means run to exhaustion.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.deadline = deadline
	for {
		top, lane := e.events.peek()
		if top == nil || deadline >= 0 && top.at > deadline {
			break
		}
		ev := e.events.pop(lane)
		if ev.at > e.now {
			e.now = ev.at
		}
		e.cur = ev.seq
		switch {
		case ev.fn != nil:
			e.trace(TraceEvent{At: e.now, Kind: TraceCallback})
			ev.fn()
		case ev.p != nil:
			e.trace(TraceEvent{At: e.now, Kind: TraceResume, Proc: ev.p.name, ProcID: ev.p.id})
			e.resumeProc(ev.p)
		}
	}
	if deadline >= 0 && e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) resumeProc(p *Proc) {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished proc %s", p.name))
	}
	p.pendingWake = false
	p.next()
}

// ScheduleWakeAfter arranges for p to resume at now+d. It is the wake
// half of the Park/ScheduleWakeAfter pair used by packages that build
// their own blocking primitives on top of the engine, and it lets engine
// callbacks hand a timed wake to a parked process (every CPU Exec ends
// this way) without the process burning a park/resume round trip on an
// intermediate Sleep.
func (e *Engine) ScheduleWakeAfter(p *Proc, d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.scheduleWake(p, e.now+d)
}

// scheduleWake arranges for p to resume at absolute time at. A parked
// process must have exactly one pending wake: double wakes corrupt the
// park/resume pairing, so they are rejected loudly.
func (e *Engine) scheduleWake(p *Proc, at time.Duration) {
	if p.pendingWake {
		panic(fmt.Sprintf("sim: double wake for proc %s", p.name))
	}
	p.pendingWake = true
	if at < e.now {
		at = e.now
	}
	e.push(event{at: at, p: p})
}

func (e *Engine) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events.push(ev, e.now)
}
