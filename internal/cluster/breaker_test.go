package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

func testBreaker(seed uint64) (*breaker, *uint64) {
	params := model.Default()
	params.BreakerFailureThreshold = 2
	params.BreakerOpenBase = 10 * time.Millisecond
	params.BreakerOpenCap = 80 * time.Millisecond
	params.BreakerRecoveryTarget = 2
	s := seed
	return newBreaker(params, nil, &s), &s
}

// Closed -> open on the failure threshold, short-circuit while open,
// half-open probe after the hold-off, full close after the recovery
// target.
func TestBreakerLifecycle(t *testing.T) {
	b, _ := testBreaker(7)
	now := time.Duration(0)
	if !b.allow(now) {
		t.Fatal("closed breaker denied an op")
	}
	b.onFailure(now)
	if b.state != BreakerClosed {
		t.Fatalf("tripped below threshold: %v", b.state)
	}
	b.onFailure(now)
	if b.state != BreakerOpen {
		t.Fatalf("state = %v after threshold failures, want open", b.state)
	}
	if b.openUntil <= now || b.openUntil > now+10*time.Millisecond {
		t.Fatalf("openUntil %v outside (0, OpenBase]", b.openUntil)
	}
	if b.allow(now) {
		t.Fatal("open breaker admitted an op")
	}
	if b.stats.ShortCircuits != 1 {
		t.Fatalf("short circuits = %d, want 1", b.stats.ShortCircuits)
	}
	if hold := b.holdoff(now); hold <= 0 {
		t.Fatalf("holdoff = %v while open", hold)
	}

	// Past the hold-off: exactly one probe token.
	now = b.openUntil
	if !b.allow(now) {
		t.Fatal("half-open breaker denied the probe")
	}
	if b.state != BreakerHalfOpen || b.stats.Probes != 1 {
		t.Fatalf("state %v probes %d after hold-off", b.state, b.stats.Probes)
	}
	if b.allow(now) {
		t.Fatal("second concurrent probe admitted before first succeeded")
	}
	b.onSuccess() // slow start: tokens grow
	if !b.allow(now) {
		t.Fatal("no token after first probe success")
	}
	b.onSuccess()
	if b.state != BreakerClosed {
		t.Fatalf("state = %v after recovery target, want closed", b.state)
	}
	if b.trips != 0 {
		t.Fatalf("full close must reset the trip count, got %d", b.trips)
	}
}

// A failed probe reopens with a doubled (capped) interval.
func TestBreakerProbeFailureBacksOff(t *testing.T) {
	b, _ := testBreaker(7)
	now := time.Duration(0)
	b.onFailure(now)
	b.onFailure(now)
	first := b.openUntil - now

	now = b.openUntil
	if !b.allow(now) {
		t.Fatal("probe denied")
	}
	b.onFailure(now)
	if b.state != BreakerOpen {
		t.Fatalf("state = %v after probe failure, want open", b.state)
	}
	if b.stats.ProbeFailures != 1 || b.stats.Opens != 2 {
		t.Fatalf("probe failures %d opens %d, want 1/2", b.stats.ProbeFailures, b.stats.Opens)
	}
	second := b.openUntil - now
	// The jittered interval lands in [base/2, base]; doubling the base
	// guarantees the second draw's floor exceeds... nothing absolute, but
	// its ceiling doubles. Check the hard bounds instead.
	if second > 20*time.Millisecond {
		t.Fatalf("second interval %v above doubled base", second)
	}
	if first > 10*time.Millisecond {
		t.Fatalf("first interval %v above base", first)
	}

	// Interval growth is capped at OpenCap no matter how many trips.
	for i := 0; i < 10; i++ {
		now = b.openUntil
		b.allow(now)
		b.onFailure(now)
	}
	if iv := b.openUntil - now; iv > 80*time.Millisecond {
		t.Fatalf("interval %v exceeds cap", iv)
	}
}

// Same seed, same failure timeline: byte-identical open intervals.
// Different seeds must diverge (the jitter is real).
func TestBreakerJitterDeterministic(t *testing.T) {
	trace := func(seed uint64) string {
		b, _ := testBreaker(seed)
		var sb strings.Builder
		now := time.Duration(0)
		for i := 0; i < 6; i++ {
			b.onFailure(now)
			b.onFailure(now)
			fmt.Fprintf(&sb, "%v;", b.openUntil-now)
			now = b.openUntil
			b.allow(now) // consume the probe so the next failure reopens
		}
		return sb.String()
	}
	if a, b := trace(7), trace(7); a != b {
		t.Fatalf("same-seed traces diverged:\n%s\n%s", a, b)
	}
	if a, b := trace(7), trace(8); a == b {
		t.Fatalf("different seeds produced identical jitter: %s", a)
	}
}
