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
func (r *Retrier) Do(ctx vfsapi.Ctx, bounded bool, attempt func(try, member int) error) error {
	c := r.clus
	p := c.params
	if bounded && r.brk != nil && !r.brk.allow(c.eng.Now()) {
		// Fail fast: the breaker learned the backend is down, so the op
		// sheds immediately instead of burning its full retry budget.
		return vfsapi.ErrIO
	}
	deadline := c.eng.Now() + p.ClientOpDeadline
	backoff := p.ClientRetryBase
	repl := c.replication
	missed := false
	for try := 0; ; try++ {
		if *r.crashed {
			// A crash mid-backoff must not let the next attempt slip
			// through: dead services issue no more requests.
			return vfsapi.ErrCrashed
		}
		if !bounded && r.brk != nil {
			if hold := r.brk.holdoff(c.eng.Now()); hold > 0 && !*r.stopped {
				r.sleep(ctx, hold)
			}
			if *r.crashed {
				return vfsapi.ErrCrashed
			}
		}
		member := try % repl
		err := attempt(try, member)
		if err == nil {
			if member != 0 {
				r.Faults.Failovers++
			}
			if r.brk != nil {
				r.brk.onSuccess()
			}
			return nil
		}
		if *r.crashed {
			return vfsapi.ErrCrashed
		}
		if !Transient(err) || *r.stopped {
			return err
		}
		if r.brk != nil {
			r.brk.onFailure(c.eng.Now())
		}
		if bounded {
			if try+1 >= p.ClientMaxRetries || c.eng.Now()+backoff > deadline {
				r.Faults.DeadlineMisses++
				return vfsapi.ErrIO
			}
		} else if !missed && c.eng.Now() > deadline {
			missed = true
			r.Faults.DeadlineMisses++
		}
		r.Faults.Retries++
		delay := backoff
		if half := delay / 2; r.jitter && half > 0 {
			delay = half + time.Duration(splitmix(&r.rng)%uint64(half+1))
		}
		r.sleep(ctx, delay)
		backoff = min(backoff*2, p.ClientRetryCap)
	}
}

// sleep waits d, charging it as I/O wait and degraded time.
func (r *Retrier) sleep(ctx vfsapi.Ctx, d time.Duration) {
	start := r.clus.eng.Now()
	ctx.P.Sleep(d)
	wait := r.clus.eng.Now() - start
	ctx.T.Account().AddIOWait(wait)
	r.Faults.TimeDegraded += wait
}
