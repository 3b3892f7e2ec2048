package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// doRig is one retrier on a fresh cluster, with the owner's crash and
// stop flags and a log of the attempts its last Do call made.
type doRig struct {
	eng              *sim.Engine
	cpus             *cpu.CPU
	r                *Retrier
	crashed, stopped bool
	at               []time.Duration // virtual time of each attempt
	members          []int           // member of each attempt
}

// newDoRig builds a retrier over model.Default params adjusted by tune
// (nil keeps them) at replication repl.
func newDoRig(repl int, seed uint64, onBreaker func(from, to BreakerState), tune func(*model.Params)) *doRig {
	params := model.Default()
	if tune != nil {
		tune(params)
	}
	d := &doRig{eng: sim.NewEngine()}
	d.cpus = cpu.New(d.eng, params, 1)
	c := New(d.eng, params, 6)
	c.SetReplication(repl)
	d.r = c.NewRetrier(&d.crashed, &d.stopped, seed, onBreaker)
	return d
}

// do runs one Do call in its own process until the engine drains;
// outcome(try) is attempt try's result (nil succeeds).
func (d *doRig) do(bounded bool, outcome func(try int) error) error {
	var err error
	d.at, d.members = nil, nil
	d.eng.Go("op", func(p *sim.Proc) {
		ctx := vfsapi.Ctx{P: p, T: d.cpus.NewThread(cpu.NewAccount("op"), 0)}
		err = d.r.Do(ctx, bounded, func(try, member int) error {
			d.at = append(d.at, d.eng.Now())
			d.members = append(d.members, member)
			return outcome(try)
		})
	})
	d.eng.Run()
	return err
}

func alwaysDown(int) error { return ErrOSDDown }

// failFirst fails the first n attempts with a partition.
func failFirst(n int) func(try int) error {
	return func(try int) error {
		if try < n {
			return netsim.ErrPartitioned
		}
		return nil
	}
}

// gaps returns the virtual time between consecutive attempts: with
// attempts that take no time, the slept backoffs.
func gaps(at []time.Duration) []time.Duration {
	var g []time.Duration
	for i := 1; i < len(at); i++ {
		g = append(g, at[i]-at[i-1])
	}
	return g
}

// A bounded operation gives up with ErrIO and one deadline miss when
// its retry budget is spent, the deadline still far away.
func TestDoBoundedGivesUpAtRetryBudget(t *testing.T) {
	d := newDoRig(1, 0, nil, func(p *model.Params) { p.ClientMaxRetries = 5 })
	if err := d.do(true, alwaysDown); !errors.Is(err, vfsapi.ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
	f := d.r.Faults
	if len(d.at) != 5 || f.Retries != 4 || f.DeadlineMisses != 1 || f.Failovers != 0 {
		t.Fatalf("attempts %d, faults %+v; want 5 attempts, 4 retries, 1 miss", len(d.at), f)
	}
}

// A bounded operation gives up as soon as the next backoff would pass
// its deadline: unjittered backoffs of 200µs and 400µs reach 600µs,
// and the next 800µs would end past the 1ms deadline.
func TestDoBoundedGivesUpAtDeadline(t *testing.T) {
	d := newDoRig(1, 0, nil, func(p *model.Params) {
		p.ClientOpDeadline = time.Millisecond
		p.ClientRetryBase = 200 * time.Microsecond
	})
	if err := d.do(true, alwaysDown); !errors.Is(err, vfsapi.ErrIO) {
		t.Fatalf("err = %v, want ErrIO", err)
	}
	want := []time.Duration{0, 200 * time.Microsecond, 600 * time.Microsecond}
	if fmt.Sprint(d.at) != fmt.Sprint(want) {
		t.Fatalf("attempts at %v, want %v", d.at, want)
	}
	f := d.r.Faults
	if f.Retries != 2 || f.DeadlineMisses != 1 || f.TimeDegraded != 600*time.Microsecond {
		t.Fatalf("faults %+v, want 2 retries, 1 miss, 600µs degraded", f)
	}
}

// A blocking operation ignores the retry budget and the deadline: it
// retries until the backend answers and counts the passed deadline as
// exactly one miss.
func TestDoBlockingCountsOneMissAndKeepsRetrying(t *testing.T) {
	d := newDoRig(1, 0, nil, func(p *model.Params) {
		p.ClientOpDeadline = time.Millisecond
		p.ClientMaxRetries = 5
	})
	if err := d.do(false, failFirst(20)); err != nil {
		t.Fatalf("err = %v, want success", err)
	}
	f := d.r.Faults
	if len(d.at) != 21 || f.Retries != 20 || f.DeadlineMisses != 1 {
		t.Fatalf("attempts %d, faults %+v; want 21 attempts, 20 retries, 1 miss", len(d.at), f)
	}
	if d.at[20] < time.Millisecond {
		t.Fatalf("last attempt at %v, before the deadline it was to pass", d.at[20])
	}
}

// Failovers counts a success on a member other than the primary, and
// nothing else: not a first-try success, not a retried success that
// came back round to the primary.
func TestDoFailoverCountsOnlyNonPrimarySuccess(t *testing.T) {
	for _, c := range []struct {
		fails     int
		failovers uint64
	}{{0, 0}, {1, 1}, {2, 1}, {3, 0}, {4, 1}} {
		for _, bounded := range []bool{true, false} {
			d := newDoRig(3, 0, nil, nil)
			if err := d.do(bounded, failFirst(c.fails)); err != nil {
				t.Fatalf("fails=%d bounded=%v: err = %v", c.fails, bounded, err)
			}
			want := []int{0, 1, 2, 0, 1}[:c.fails+1]
			if fmt.Sprint(d.members) != fmt.Sprint(want) {
				t.Fatalf("fails=%d bounded=%v: members %v, want %v", c.fails, bounded, d.members, want)
			}
			if f := d.r.Faults; f.Failovers != c.failovers || f.Retries != uint64(c.fails) {
				t.Fatalf("fails=%d bounded=%v: faults %+v, want %d failovers", c.fails, bounded, f, c.failovers)
			}
		}
	}
}

// A crash during a backoff ends the loop with ErrCrashed before the
// next attempt, for both kinds of operation.
func TestDoCrashDuringBackoff(t *testing.T) {
	for _, bounded := range []bool{true, false} {
		d := newDoRig(2, 0, nil, nil)
		d.eng.Go("crash", func(p *sim.Proc) {
			p.Sleep(100 * time.Microsecond) // inside the first 200µs backoff
			d.crashed = true
		})
		if err := d.do(bounded, alwaysDown); !errors.Is(err, vfsapi.ErrCrashed) {
			t.Fatalf("bounded=%v: err = %v, want ErrCrashed", bounded, err)
		}
		if len(d.at) != 1 || d.r.Faults.Retries != 1 {
			t.Fatalf("bounded=%v: attempts %d, faults %+v; want 1 attempt, 1 retry", bounded, len(d.at), d.r.Faults)
		}
	}
}

// A non-transient error returns at once, unretried and uncounted; so
// does any error once the owner has stopped.
func TestDoReturnsAtOnceOnNonTransientOrStop(t *testing.T) {
	for _, bounded := range []bool{true, false} {
		d := newDoRig(2, 0, nil, nil)
		err := d.do(bounded, func(int) error { return vfsapi.ErrNotExist })
		if !errors.Is(err, vfsapi.ErrNotExist) || len(d.at) != 1 || d.r.Faults != (metrics.FaultCounters{}) {
			t.Fatalf("bounded=%v: err %v after %d attempts, faults %+v", bounded, err, len(d.at), d.r.Faults)
		}
		d.stopped = true
		if err := d.do(bounded, alwaysDown); !errors.Is(err, ErrOSDDown) || len(d.at) != 1 {
			t.Fatalf("bounded=%v stopped: err %v after %d attempts", bounded, err, len(d.at))
		}
	}
}

// An open breaker fails a bounded operation fast, with no attempt, and
// holds a blocking one off until the open interval ends.
func TestDoOpenBreakerShedsBoundedAndHoldsBlocking(t *testing.T) {
	var trans []string
	d := newDoRig(1, 7, func(from, to BreakerState) {
		trans = append(trans, fmt.Sprintf("%v->%v", from, to))
	}, func(p *model.Params) {
		p.ClientMaxRetries = 2
		p.BreakerFailureThreshold = 2
		p.BreakerOpenBase = 10 * time.Millisecond
	})
	// Two failed attempts trip the breaker; the budget of 2 gives up.
	if err := d.do(true, alwaysDown); !errors.Is(err, vfsapi.ErrIO) {
		t.Fatalf("tripping op: err = %v, want ErrIO", err)
	}
	if d.r.brk.state != BreakerOpen || fmt.Sprint(trans) != "[closed->open]" {
		t.Fatalf("breaker %v after two failures, transitions %v", d.r.brk.state, trans)
	}
	openUntil := d.r.brk.openUntil
	if err := d.do(true, failFirst(0)); !errors.Is(err, vfsapi.ErrIO) || len(d.at) != 0 {
		t.Fatalf("bounded op under open breaker: err %v after %d attempts, want ErrIO after 0", err, len(d.at))
	}
	if s := d.r.BreakerStats(); s.ShortCircuits != 1 || s.Opens != 1 {
		t.Fatalf("breaker stats %+v, want 1 short circuit, 1 open", s)
	}
	start := d.eng.Now()
	degraded := d.r.Faults.TimeDegraded
	if err := d.do(false, failFirst(0)); err != nil {
		t.Fatalf("blocking op under open breaker: err = %v", err)
	}
	if len(d.at) != 1 || d.at[0] != openUntil {
		t.Fatalf("blocking op attempted at %v, want once at the end of the open interval %v", d.at, openUntil)
	}
	if got := d.r.Faults.TimeDegraded - degraded; got != openUntil-start {
		t.Fatalf("hold-off charged %v degraded, want %v", got, openUntil-start)
	}
}

// Retry backoff timing is seeded and exactly reproducible: the same
// seed spaces a failing bounded operation's attempts by identical
// gaps, all within [base/2, cap], and a different seed by different
// ones. An unjittered (seed 0) blocking operation, the kernel client's
// loop, doubles from the base up to the cap exactly.
func TestRetryBackoffSeededAndCapped(t *testing.T) {
	base, retryCap := model.Default().ClientRetryBase, model.Default().ClientRetryCap
	run := func(seed uint64) string {
		d := newDoRig(1, seed, nil, nil)
		if err := d.do(true, alwaysDown); !errors.Is(err, vfsapi.ErrIO) {
			t.Fatalf("seed %d: err = %v, want ErrIO", seed, err)
		}
		g := gaps(d.at)
		if len(g) == 0 {
			t.Fatal("no retry gaps observed")
		}
		var sb strings.Builder
		for _, d := range g {
			if d < base/2 || d > retryCap {
				t.Fatalf("gap %v outside [base/2, cap] = [%v, %v]", d, base/2, retryCap)
			}
			fmt.Fprintf(&sb, "%v;", d)
		}
		return sb.String()
	}
	a := run(3)
	if b := run(3); a != b {
		t.Fatalf("same-seed retry timing diverged:\n%s\n%s", a, b)
	}
	if c := run(4); c == a {
		t.Fatalf("different retry seeds produced identical timing: %s", a)
	}

	d := newDoRig(1, 0, nil, nil)
	if err := d.do(false, failFirst(10)); err != nil {
		t.Fatalf("unjittered blocking op: err = %v", err)
	}
	var want []time.Duration
	for b := base; len(want) < 10; b = min(2*b, retryCap) {
		want = append(want, b)
	}
	if got := gaps(d.at); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unjittered gaps %v, want %v", got, want)
	}
	if want[9] != retryCap {
		t.Fatalf("sequence %v never reached the cap %v", want, retryCap)
	}
}
