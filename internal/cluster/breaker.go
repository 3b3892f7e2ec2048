// Circuit breaker for a client's backend path. When a backend is
// faulted (crashed OSD, partition), the plain retry loop keeps every
// operation burning its full retry budget; the breaker learns after a
// few consecutive failures and fails bounded operations fast while the
// backend recovers, probing with a slow-start budget before trusting it
// again. Blocking operations (writeback) are never shed — they hold off
// until the next probe time instead (writeback must not drop data).

package cluster

import (
	"time"

	"repro/internal/model"
)

// BreakerState is the circuit breaker automaton state.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes every operation through (healthy backend).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails reads fast and holds writeback off until the
	// open interval elapses.
	BreakerOpen
	// BreakerHalfOpen admits a limited probe budget; successes grow the
	// budget (slow start) until the breaker closes, any failure reopens.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerStats counts breaker activity.
type BreakerStats struct {
	// Opens is the number of closed/half-open -> open transitions.
	Opens uint64
	// ShortCircuits is the number of bounded operations failed fast
	// while the breaker was open.
	ShortCircuits uint64
	// Probes is the number of operations admitted in half-open state.
	Probes uint64
	// ProbeFailures is the number of half-open probes that failed and
	// reopened the breaker.
	ProbeFailures uint64
}

// breaker reads its thresholds (BreakerFailureThreshold, BreakerOpenBase,
// BreakerOpenCap, BreakerRecoveryTarget) from the model parameters.
type breaker struct {
	params    *model.Params
	onChange  func(from, to BreakerState) // observes every transition
	rng       *uint64                     // shared with the retry jitter stream
	state     BreakerState
	failures  int           // consecutive failures while closed
	trips     int           // consecutive opens without a full recovery
	openUntil time.Duration // virtual time the open interval ends
	tokens    int           // half-open probe budget remaining
	successes int           // half-open probe successes so far
	stats     BreakerStats
}

func newBreaker(params *model.Params, onChange func(from, to BreakerState), rng *uint64) *breaker {
	return &breaker{params: params, onChange: onChange, rng: rng}
}

func (b *breaker) transition(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// allow reports whether a bounded operation may proceed at virtual time now. In the
// open state it flips to half-open once the open interval has elapsed;
// in half-open it consumes one probe token per admitted operation.
func (b *breaker) allow(now time.Duration) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now < b.openUntil {
			b.stats.ShortCircuits++
			return false
		}
		b.transition(BreakerHalfOpen)
		b.tokens = 1
		b.successes = 0
		fallthrough
	default: // BreakerHalfOpen
		if b.tokens <= 0 {
			b.stats.ShortCircuits++
			return false
		}
		b.tokens--
		b.stats.Probes++
		return true
	}
}

// holdoff returns how long a blocking operation must wait before attempting the
// backend: the remainder of the open interval, zero otherwise.
func (b *breaker) holdoff(now time.Duration) time.Duration {
	if b.state == BreakerOpen && now < b.openUntil {
		return b.openUntil - now
	}
	return 0
}

// onSuccess records a successful backend attempt. Half-open successes
// grow the probe budget (slow start: the budget doubles with each
// success) until BreakerRecoveryTarget closes the breaker and resets the
// exponential open interval.
func (b *breaker) onSuccess() {
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.successes++
		if b.successes >= b.params.BreakerRecoveryTarget {
			b.trips = 0
			b.failures = 0
			b.transition(BreakerClosed)
			return
		}
		b.tokens += 1 << b.successes
	}
}

// onFailure records a failed (transient) backend attempt at virtual
// time now. A run of BreakerFailureThreshold failures trips a closed breaker;
// any half-open failure reopens immediately with a doubled interval.
func (b *breaker) onFailure(now time.Duration) {
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.params.BreakerFailureThreshold {
			b.trip(now)
		}
	case BreakerHalfOpen:
		b.stats.ProbeFailures++
		b.trip(now)
	}
}

// trip opens the breaker with the seeded-jittered exponential interval.
func (b *breaker) trip(now time.Duration) {
	interval := b.params.BreakerOpenBase << b.trips
	if interval > b.params.BreakerOpenCap || interval <= 0 {
		interval = b.params.BreakerOpenCap
	}
	// Deterministic jitter in [interval/2, interval] desynchronizes
	// recovery probes across clients without sacrificing replayability.
	half := interval / 2
	if half > 0 {
		interval = half + time.Duration(splitmix(b.rng)%uint64(half+1))
	}
	b.trips++
	b.failures = 0
	b.stats.Opens++
	b.openUntil = now + interval
	b.transition(BreakerOpen)
}

// splitmix advances a SplitMix64 state and returns the next value —
// a retrier's deterministic jitter stream (retry backoff and breaker
// open intervals share it, in engine order).
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
