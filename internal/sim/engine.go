//go:build go1.23

// The module declares go 1.22; the constraint above raises the language
// version of this file alone to the one that added package iter.

// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock over a queue of pending events,
// run in the order of their time and, at equal times, of their
// scheduling. The queue is a monotone radix heap: the clock never runs
// backwards, so no event is ever scheduled before the last one run, and
// a push is O(1) with no comparison beyond the earliest pending time. The
// earliest pending event often waits in a front slot ahead of the heap.
//
// Simulated processes (Proc) are coroutines (iter.Pull) that the engine
// loop resumes and that yield back to it whenever they block on a
// simulated primitive (Sleep, Mutex, WaitQueue, Resource). Every switch
// between two processes goes through the loop: the parking process
// yields, and the loop pops the next event and resumes its process, or
// the process a callback of that event handed control to (ResumeHere).
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
	// handoff is the process a callback handed control back to with
	// ResumeHere; it resumes within the event being run, once the
	// callback returns (see RunUntil and Proc.park).
	handoff *Proc

	// deadline is the bound of the RunUntil call currently draining the
	// queue (negative: run to exhaustion). Processes consult it when
	// executing elidable events inline — see Proc.park — so inline
	// execution never runs past the engine loop's own stopping point.
	deadline time.Duration

	liveProcs  int // processes started and not yet finished
	nextProcID int

	tracer func(TraceEvent) // optional observer, see SetTracer
	obs    Observer         // optional observer, see SetObserver
}

// Observer receives what processes report as they run: each completed
// wait interval and each CPU slice. proc is the reporting process's id.
//
// Wait: kind names the primitive ("lock", "runq", "net", "osd", "mds",
// "disk", "waitq"), resource the contended object, and holder the party
// that occupied it ("" when not applicable). holderID is the process id
// of the holder when the holder is a process (0 otherwise — e.g. a
// runqueue aggressor is an account, not a process); observers use it to
// resolve the holder to the request it was serving.
//
// Slice: proc ran on core, charged to account as kind ("user" or
// "kernel"). A slice is also the process's "run" wait on "cpu", with no
// holder: an observer that tracks waits counts it as one.
//
// Both intervals are [start, start+dur), and start+dur is always the
// current virtual time.
type Observer interface {
	Wait(proc int, kind, resource, holder string, holderID int, start, dur time.Duration)
	Slice(proc, core int, account, kind string, start, dur time.Duration)
}

// SetObserver installs o as the engine's observer. Waits and slices are
// reported passively — observation schedules no events and reads only
// the virtual clock — so an installed observer never perturbs the
// simulation schedule. A nil o removes the observer.
func (e *Engine) SetObserver(o Observer) { e.obs = o }

// HasWaitObserver reports whether an observer is installed. Callers
// use it to skip attribution work (e.g. scanning for the aggressor of a
// runqueue wait) that only matters when someone is listening.
func (e *Engine) HasWaitObserver() bool { return e.obs != nil }

// WaitFn observes one completed wait interval, as Observer.Wait does.
// As an Observer, it sees each slice as its "run" wait on "cpu".
type WaitFn func(proc int, kind, resource, holder string, holderID int, start, dur time.Duration)

// Wait calls fn.
func (fn WaitFn) Wait(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
	fn(proc, kind, resource, holder, holderID, start, dur)
}

// Slice calls fn with the slice as the process's "run" wait.
func (fn WaitFn) Slice(proc, _ int, _, _ string, start, dur time.Duration) {
	if dur > 0 {
		fn(proc, "run", "cpu", "", 0, start, dur)
	}
}

// SetWaitObserver installs fn as the engine's observer: it sees every
// wait, each slice as its "run" wait on "cpu" included. A nil fn
// removes the observer.
func (e *Engine) SetWaitObserver(fn WaitFn) {
	if fn == nil {
		e.obs = nil
		return
	}
	e.obs = fn
}

// NewEngine returns an empty engine at virtual time zero.
func NewEngine() *Engine {
	// Pre-size the queue's slab for 256 pending events, the depth of an
	// 8-pool run, so steady-state event churn never grows it.
	return &Engine{deadline: -1, events: newEventQueue(256)}
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
	for e.events.peek(deadline) != nil {
		ev := e.events.pop()
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
		// A callback, run here or inline by a process that then
		// yielded, handed control to a process: resume it within this
		// event.
		for e.handoff != nil {
			p := e.handoff
			e.handoff = nil
			e.resumeProc(p)
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
	e.events.push(ev)
}
