package cacherun

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memacct"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// fetchScript is a scripted client of TestFetchOrder: each client step
// logs its call and goes on as the script says.
type fetchScript struct {
	r       Run[struct{}]
	f       *cache.File[struct{}]
	calls   []string
	fillErr error
	checks  []error // what each crash check returns, in turn; then nil
}

func (s *fetchScript) File() *cache.File[struct{}] { return s.f }

func (s *fetchScript) Check() error {
	s.calls = append(s.calls, "check")
	if len(s.checks) == 0 {
		return nil
	}
	err := s.checks[0]
	s.checks = s.checks[1:]
	return err
}

func (s *fetchScript) Fill() {
	s.calls = append(s.calls, fmt.Sprintf("fill(%d+%d)", s.r.G.Off, s.r.G.Len))
	s.r.Filled(s.fillErr)
}

func (s *fetchScript) Fetched() {
	s.calls = append(s.calls, "fetched")
	s.r.HandBack(HandDone)
}

func (s *fetchScript) End() {
	s.calls = append(s.calls, "end")
	s.r.HandBack(HandDone)
}

func (s *fetchScript) Throttled()      { panic("no write here") }
func (s *fetchScript) PushSize() int64 { panic("no close here") }

// TestFetchOrder drives the read-miss loop of a Run, with a scripted
// client over a real ledger, and checks the order of the client steps it
// calls: a fill, or a wait on another reader's fill, then the crash
// check and the next claim, until a claim finds the window resident or
// a fill or crash check fails, which ends the loop once. A check that
// finds the client crashed is charged Steps.Crash; another failed check
// is not. Every fill's claim is released, and a good fill counts in
// Missed.
func TestFetchOrder(t *testing.T) {
	const window = 8 << 10
	us := time.Microsecond
	errFill := errors.New("fill")
	for _, tc := range []struct {
		name     string
		resident int64 // [0, resident) is cached at the start
		other    int64 // another reader fetches [0, other) until 10us
		fillErr  error
		checks   []error
		want     string
		wantErr  error
		wantAt   time.Duration
		wantMiss int64
	}{
		{name: "hit", resident: window, want: "fetched"},
		{name: "fill", want: "fill(0+8192) check check fetched", wantMiss: window},
		{name: "partial fill", resident: 4 << 10, want: "fill(4096+4096) check check fetched", wantMiss: 4 << 10},
		{name: "fill error", fillErr: errFill, want: "fill(0+8192) end", wantErr: errFill},
		{name: "crashed after a fill", checks: []error{vfsapi.ErrCrashed}, want: "fill(0+8192) check end",
			wantErr: vfsapi.ErrCrashed, wantAt: us},
		{name: "closed after a fill", checks: []error{vfsapi.ErrClosed}, want: "fill(0+8192) check end", wantErr: vfsapi.ErrClosed},
		{name: "wait", other: window, want: "check fetched", wantAt: 10 * us},
		{name: "wait, then fill", other: 4 << 10, want: "check fill(4096+4096) check check fetched", wantAt: 10 * us, wantMiss: 4 << 10},
		{name: "crashed after a wait", other: window, checks: []error{vfsapi.ErrCrashed}, want: "check end",
			wantErr: vfsapi.ErrCrashed, wantAt: 11 * us},
	} {
		e := sim.NewEngine()
		params := model.Default()
		cpus := cpu.New(e, params, 1)
		ledger := cache.New[struct{}](memacct.NewMeter("test"), 1<<30)
		var missed int64
		steps := &Steps[struct{}]{
			Cache: ledger, Params: params,
			FetchQ: sim.NewWaitQueue(e, "fetch"), ThrottleQ: sim.NewWaitQueue(e, "throttle"),
			Crash: cpu.Charge(cpu.User, us), Missed: &missed,
		}
		s := &fetchScript{fillErr: tc.fillErr, checks: tc.checks}
		s.f, _ = ledger.File(1, 1<<20)
		s.r.Init(steps, s)
		ledger.Insert(s.f, 0, tc.resident)
		if tc.other > 0 {
			// The other reader's fill of the range it claimed.
			s.f.Fetching.Insert(0, tc.other)
			e.After(10*us, func() {
				ledger.Insert(s.f, 0, tc.other)
				s.f.Fetching.Remove(0, tc.other)
				steps.FetchQ.Broadcast()
			})
		}
		var at time.Duration
		e.Go("reader", func(p *sim.Proc) {
			s.r.Reset(vfsapi.Ctx{P: p, T: cpus.NewThread(cpu.NewAccount("app"), 0)}, vfsapi.OpRead, 0, window)
			s.r.FetchLen = window
			s.r.Claim()
			p.Park()
			at = p.Now()
		})
		e.Run()
		got := strings.Join(s.calls, " ")
		if got != tc.want || s.r.Err != tc.wantErr || at != tc.wantAt || missed != tc.wantMiss {
			t.Errorf("%s: calls %q, error %v at %v, %d bytes missed; want %q, %v at %v, %d",
				tc.name, got, s.r.Err, at, missed, tc.want, tc.wantErr, tc.wantAt, tc.wantMiss)
		}
		if s.f.Fetching.Len() != 0 {
			t.Errorf("%s: %d bytes still claimed", tc.name, s.f.Fetching.Len())
		}
	}
}
