package sim

import "time"

// TraceEvent describes one occurrence the engine processed: a callback
// firing or a process resuming.
type TraceEvent struct {
	At   time.Duration
	Kind TraceKind
	// Proc identifies the resumed process (empty for callbacks).
	Proc string
	// ProcID is the unique id of the resumed process (0 for callbacks).
	ProcID int
}

// TraceKind classifies trace events.
type TraceKind int

// Trace event kinds.
const (
	// TraceCallback is a timer/engine callback execution.
	TraceCallback TraceKind = iota
	// TraceResume is a process resumption.
	TraceResume
	// TraceFinish is a process termination.
	TraceFinish
)

// String renders the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceCallback:
		return "callback"
	case TraceResume:
		return "resume"
	case TraceFinish:
		return "finish"
	default:
		return "?"
	}
}

// SetTracer installs fn to observe every event the engine processes.
// Passing nil disables tracing. Tracing has no effect on virtual time,
// so a traced run is identical to an untraced one.
func (e *Engine) SetTracer(fn func(TraceEvent)) { e.tracer = fn }

func (e *Engine) trace(ev TraceEvent) {
	if e.tracer != nil {
		e.tracer(ev)
	}
}
