package cluster

import (
	"errors"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/vfsapi"
)

// Transient reports whether err is a transient backend fault worth
// retrying (as opposed to a semantic error like ErrNotExist).
func Transient(err error) bool {
	return errors.Is(err, ErrOSDDown) ||
		errors.Is(err, netsim.ErrPartitioned) ||
		errors.Is(err, netsim.ErrDropped)
}

// Retrier is one storage client's side of backend fault handling: it
// cycles an operation through its replication group with
// capped-exponential backoff, optionally jittered and guarded by a
// circuit breaker, and counts what that costs. Both the user-level and
// the kernel Ceph clients run their data operations through one, so
// their fault counters mean the same thing.
type Retrier struct {
	// Faults counts the client's retry and failover activity.
	Faults metrics.FaultCounters

	clus *Cluster
	// crashed and stopped are the owning client's flags, read at fixed
	// points of every loop.
	crashed, stopped *bool
	// jitter spreads each backoff over [d/2, d] from rng, the SplitMix64
	// stream the backoff and the breaker's open intervals share in
	// engine order. brk is nil unless a breaker was asked for.
	jitter bool
	rng    uint64
	brk    *breaker
}

// NewRetrier builds a retrier for a client whose crash and stop flags
// are crashed and stopped. A nonzero seed jitters every backoff from a
// stream it seeds; zero backs off by exact doublings. A non-nil
// onBreaker enables the circuit breaker (thresholds from the cluster's
// model.Params) and observes each of its state transitions.
func (c *Cluster) NewRetrier(crashed, stopped *bool, seed uint64, onBreaker func(from, to BreakerState)) *Retrier {
	r := &Retrier{clus: c, crashed: crashed, stopped: stopped, jitter: seed != 0, rng: seed}
	if onBreaker != nil {
		r.brk = newBreaker(c.params, onBreaker, &r.rng)
	}
	return r
}

// BreakerStats returns the circuit-breaker counters (zero when the
// breaker is disabled).
func (r *Retrier) BreakerStats() BreakerStats {
	if r.brk == nil {
		return BreakerStats{}
	}
	return r.brk.stats
}

// Do runs attempt until it succeeds. Try counts attempts from 0 and
// member (try mod the replication factor at the call) names the
// replication group member to try; routing is attempt's own choice.
//
// A bounded operation (a user-level read) fails fast with vfsapi.ErrIO
// while the breaker denies it, and gives up with vfsapi.ErrIO, counting
// one deadline miss, once the retry budget (ClientMaxRetries) is spent
// or the next backoff would pass the per-op deadline. Any other
// operation blocks, as writeback must not drop data and the kernel
// client hangs in D state: it never gives up, holds off while the
// breaker is open, and counts one deadline miss once the deadline has
// passed. Either kind returns vfsapi.ErrCrashed once the owner crashed,
// and a non-transient error, or any error after the owner stopped, at
// once.
//
// Do is Begin, then Retry from the first attempt. A run that makes the
// first attempt itself — a read miss in a request run — calls Begin,
// checks Ready, and on success Succeeded; at a failure it hands the
// attempt's error to Retry in its process.
func (r *Retrier) Do(ctx vfsapi.Ctx, bounded bool, attempt func(try, member int) error) error {
	op, err := r.Begin(bounded)
	if err != nil {
		return err
	}
	return r.Retry(ctx, &op, nil, attempt)
}

// Op is one operation's way through Do: its kind, deadline and next
// backoff, the replication factor at its start and its current try.
type Op struct {
	bounded  bool
	deadline time.Duration
	backoff  time.Duration
	repl     int
	try      int
	missed   bool // a blocking operation counted its deadline miss
}

// Member is the replication group member op's current try goes to.
func (op *Op) Member() int { return op.try % op.repl }

// Begin starts a Do of a bounded or blocking operation at the current
// time. It fails a bounded operation the breaker denies with
// vfsapi.ErrIO.
func (r *Retrier) Begin(bounded bool) (Op, error) {
	c := r.clus
	if bounded && r.brk != nil && !r.brk.allow(c.eng.Now()) {
		// Fail fast: the breaker learned the backend is down, so the op
		// sheds immediately instead of burning its full retry budget.
		return Op{}, vfsapi.ErrIO
	}
	p := c.params
	return Op{bounded: bounded, deadline: c.eng.Now() + p.ClientOpDeadline, backoff: p.ClientRetryBase, repl: c.replication}, nil
}

// Ready reports whether op's current try may be attempted at once: the
// owner has not crashed and no open breaker holds a blocking operation
// off. Otherwise Retry, given no error, makes the checks that block.
func (r *Retrier) Ready(op *Op) bool {
	if *r.crashed {
		return false
	}
	return op.bounded || r.brk == nil || *r.stopped || r.brk.holdoff(r.clus.eng.Now()) == 0
}

// Succeeded counts the success of op's current try.
func (r *Retrier) Succeeded(op *Op) {
	if op.Member() != 0 {
		r.Faults.Failovers++
	}
	if r.brk != nil {
		r.brk.onSuccess()
	}
}

// Retry goes on with op in its process until an attempt succeeds (see
// Do): from the failure err of its current try, or, with a nil err,
// from the checks before that try.
func (r *Retrier) Retry(ctx vfsapi.Ctx, op *Op, err error, attempt func(try, member int) error) error {
	for {
		if err != nil {
			if err = r.failed(ctx, op, err); err != nil {
				return err
			}
		}
		if *r.crashed {
			// A crash mid-backoff must not let the next attempt slip
			// through: dead services issue no more requests.
			return vfsapi.ErrCrashed
		}
		if !op.bounded && r.brk != nil {
			if hold := r.brk.holdoff(r.clus.eng.Now()); hold > 0 && !*r.stopped {
				r.sleep(ctx, hold)
			}
			if *r.crashed {
				return vfsapi.ErrCrashed
			}
		}
		if err = attempt(op.try, op.Member()); err == nil {
			r.Succeeded(op)
			return nil
		}
	}
}

// failed handles the failure err of op's current try: it returns the
// error that ends op, or nil once the backoff is over and op stands at
// its next try.
func (r *Retrier) failed(ctx vfsapi.Ctx, op *Op, err error) error {
	c := r.clus
	p := c.params
	if *r.crashed {
		return vfsapi.ErrCrashed
	}
	if !Transient(err) || *r.stopped {
		return err
	}
	if r.brk != nil {
		r.brk.onFailure(c.eng.Now())
	}
	if op.bounded {
		if op.try+1 >= p.ClientMaxRetries || c.eng.Now()+op.backoff > op.deadline {
			r.Faults.DeadlineMisses++
			return vfsapi.ErrIO
		}
	} else if !op.missed && c.eng.Now() > op.deadline {
		op.missed = true
		r.Faults.DeadlineMisses++
	}
	r.Faults.Retries++
	delay := op.backoff
	if half := delay / 2; r.jitter && half > 0 {
		delay = half + time.Duration(splitmix(&r.rng)%uint64(half+1))
	}
	r.sleep(ctx, delay)
	op.backoff = min(op.backoff*2, p.ClientRetryCap)
	op.try++
	return nil
}

// sleep waits d, charging it as I/O wait and degraded time.
func (r *Retrier) sleep(ctx vfsapi.Ctx, d time.Duration) {
	start := r.clus.eng.Now()
	ctx.P.Sleep(d)
	wait := r.clus.eng.Now() - start
	ctx.T.Account().AddIOWait(wait)
	r.Faults.TimeDegraded += wait
}
