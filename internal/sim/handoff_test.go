package sim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestResumeHere hands a parked process control back from a callback
// on each path the callback can run on — the engine loop, another
// process's inline drain, the process's own drain — and from the
// process itself before it parks. In every case the process must
// resume at the callback's event, before the next event due at the
// same instant, after exactly one park, with no event pushed and no
// trace event emitted for the hand-back.
func TestResumeHere(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name string
		// setup starts the other processes and schedules the callback
		// that calls back, given the process to hand control to.
		setup func(e *Engine, back func())
	}{
		{"engine loop", func(e *Engine, back func()) {
			// p's drain stops at q's start; q returns without parking,
			// so the loop itself pops the callback.
			e.Go("q", func(*Proc) {})
			e.After(ms, back)
		}},
		{"another process's drain", func(e *Engine, back func()) {
			// q parks until 2ms and runs the callback inline.
			e.Go("q", func(q *Proc) { q.Sleep(2 * ms) })
			e.After(ms, back)
		}},
		{"own drain", func(e *Engine, back func()) {
			e.After(ms, back)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			var trace []string
			e.SetTracer(func(ev TraceEvent) { trace = append(trace, fmt.Sprint(ev.At, " ", ev.Kind, " ", ev.Proc)) })
			var order []string
			p := e.Go("p", func(p *Proc) {
				p.Park()
				order = append(order, fmt.Sprint("p at ", p.Now(), " after ", p.Parks(), " park"))
			})
			c.setup(e, func() {
				order = append(order, "hand back")
				p.ResumeHere()
			})
			e.After(ms, func() { order = append(order, "next event") })
			e.Run()
			want := []string{"hand back", "p at 1ms after 1 park", "next event"}
			if !slices.Equal(order, want) {
				t.Fatalf("order %q, want %q", order, want)
			}
			var resumes int
			for _, ev := range trace {
				if strings.HasSuffix(ev, " resume p") {
					resumes++
				}
			}
			if resumes != 1 {
				t.Fatalf("p traced %d resumes, want only its start:\n%s", resumes, strings.Join(trace, "\n"))
			}
			if e.LiveProcs() != 0 {
				t.Fatalf("%d procs left", e.LiveProcs())
			}
		})
	}

	t.Run("before parking", func(t *testing.T) {
		e := NewEngine()
		events := 0
		e.SetTracer(func(ev TraceEvent) {
			if ev.Kind != TraceFinish {
				events++
			}
		})
		e.Go("p", func(p *Proc) {
			p.ResumeHere()
			p.Park()
			if p.Now() != 0 || p.Parks() != 1 {
				t.Errorf("p returned from its park at %v after %d parks, want at once after 1", p.Now(), p.Parks())
			}
		})
		e.Run()
		if events != 1 {
			t.Fatalf("%d engine events, want only p's start", events)
		}
	})
}

// TestResumeHereMisusePanics: a hand-back to a process with a pending
// wake, to a finished one, or while another is set, is always a bug in
// the model and must panic.
func TestResumeHereMisusePanics(t *testing.T) {
	wantPanic := func(name, msg string, setup func(e *Engine)) {
		t.Helper()
		e := NewEngine()
		setup(e)
		defer func() {
			t.Helper()
			got, _ := recover().(string)
			if !strings.Contains(got, msg) {
				t.Errorf("%s: panic %q, want one containing %q", name, got, msg)
			}
		}()
		e.Run()
	}
	wantPanic("pending wake", "pending wake", func(e *Engine) {
		p := e.Go("p", func(p *Proc) { p.Sleep(time.Hour) })
		e.After(time.Millisecond, p.ResumeHere)
	})
	wantPanic("finished", "finished proc", func(e *Engine) {
		p := e.Go("p", func(*Proc) {})
		e.After(time.Millisecond, p.ResumeHere)
	})
	wantPanic("second hand-back", "while p is being resumed", func(e *Engine) {
		p := e.Go("p", func(p *Proc) { p.Park() })
		q := e.Go("q", func(q *Proc) { q.Park() })
		e.After(time.Millisecond, func() {
			p.ResumeHere()
			q.ResumeHere()
		})
	})
}
