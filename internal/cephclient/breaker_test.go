package cephclient

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

func testBreaker(seed uint64) (*breaker, *uint64) {
	s := seed
	b := newBreaker(BreakerConfig{
		FailureThreshold: 2,
		OpenBase:         10 * time.Millisecond,
		OpenCap:          80 * time.Millisecond,
		RecoveryTarget:   2,
	}, &s)
	return b, &s
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

// Seeded determinism of the half-open automaton under concurrent
// probes: several reader procs hammer a dead unreplicated primary, the
// breaker trips and cycles open -> half-open -> open while the backend
// stays down, and half-open -> closed once it restarts. The full
// timestamped transition trace must replay byte-identically for the
// same RetrySeed (the jittered open intervals and the engine's probe
// interleaving are both deterministic) and diverge for a different
// seed.
func TestBreakerHalfOpenDeterministicUnderConcurrentProbes(t *testing.T) {
	trace := func(seed uint64) string {
		var sb strings.Builder
		params := model.Default()
		params.BreakerFailureThreshold = 2
		params.BreakerOpenBase = 2 * time.Millisecond
		params.BreakerOpenCap = 16 * time.Millisecond
		params.BreakerRecoveryTarget = 2
		// A tight retry budget makes each failed read give up quickly, so
		// probes keep re-entering the breaker while the backend is down
		// (the default 64-attempt budget would park every proc inside its
		// first read until the restart).
		params.ClientMaxRetries = 2
		var r *rig
		r = newRigWith(t, params, Config{
			RetrySeed: seed,
			Breaker: func(from, to BreakerState) {
				fmt.Fprintf(&sb, "%v:%v->%v;", r.eng.Now(), from, to)
			},
		})
		r.run(t, func(ctx vfsapi.Ctx) {
			h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			h.Write(ctx, 0, 4<<20)
			if err := h.Fsync(ctx); err != nil {
				t.Fatalf("fsync: %v", err)
			}
			h.Close(ctx)
			ino := h.(*chandle).f.Ino
			dropColdCache(r, ctx, ino)

			// Replication 1 with a dead primary: every probe fails until
			// the restart, then the slow-start budget closes the breaker.
			osd := r.clus.OSDs()[r.clus.PlacementOf(ino, 0)]
			osd.Crash()
			for i := 0; i < 3; i++ {
				off := int64(i) << 20
				r.eng.Go(fmt.Sprintf("probe%d", i), func(p *sim.Proc) {
					pctx := vfsapi.Ctx{P: p, T: r.cpus.NewThread(r.acct, 0)}
					rh, err := r.client.Open(pctx, "/f", vfsapi.RDONLY)
					if err != nil {
						t.Errorf("reopen: %v", err)
						return
					}
					defer rh.Close(pctx)
					for n := 0; n < 30; n++ {
						rh.Read(pctx, off+int64(n%4)*256<<10, 256<<10)
						p.Sleep(2 * time.Millisecond)
					}
				})
			}
			ctx.P.Sleep(40 * time.Millisecond)
			osd.Restart()
			// Wait out the probe procs in virtual time (the engine is
			// single-threaded; polling LiveProcs from the test proc is
			// deterministic).
			for r.eng.LiveProcs() > 2 {
				ctx.P.Sleep(time.Millisecond)
			}
		})
		return sb.String()
	}
	a := trace(11)
	if !strings.Contains(a, "open->half-open;") || !strings.Contains(a, "half-open->open;") {
		t.Fatalf("trace missing the half-open->open reopen cycle: %s", a)
	}
	if !strings.Contains(a, "half-open->closed;") {
		t.Fatalf("trace missing half-open->closed recovery: %s", a)
	}
	if b := trace(11); a != b {
		t.Fatalf("same-seed transition traces diverged:\n%s\n%s", a, b)
	}
	if c := trace(12); a == c {
		t.Fatalf("different seeds produced identical transition timing: %s", a)
	}
}

// Satellite regression: retry backoff timing is seeded and exactly
// reproducible — two clients with the same RetrySeed observing the
// same failure sequence sleep byte-identical delays, all within the
// configured cap.
func TestRetryBackoffSeededAndCapped(t *testing.T) {
	run := func(seed uint64) string {
		var delays []time.Duration
		r := newRig(t, Config{
			RetrySeed:     seed,
			RetryObserver: func(d time.Duration) { delays = append(delays, d) },
		})
		r.run(t, func(ctx vfsapi.Ctx) {
			h, err := r.client.Open(ctx, "/f", vfsapi.CREATE|vfsapi.WRONLY)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			h.Write(ctx, 0, 1<<20)
			if err := h.Fsync(ctx); err != nil {
				t.Fatalf("fsync: %v", err)
			}
			h.Close(ctx)

			ino := h.(*chandle).f.Ino
			dropColdCache(r, ctx, ino)
			// Replication 1 and a dead primary: every read attempt fails
			// and backs off until the retry budget is spent.
			r.clus.OSDs()[r.clus.PlacementOf(ino, 0)].Crash()
			rh, err := r.client.Open(ctx, "/f", vfsapi.RDONLY)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer rh.Close(ctx)
			if _, err := rh.Read(ctx, 0, 256<<10); err == nil {
				t.Fatal("read of unreplicated dead primary succeeded")
			}
		})
		if len(delays) == 0 {
			t.Fatal("no retry delays observed")
		}
		base, cap := r.client.params.ClientRetryBase, r.client.params.ClientRetryCap
		var sb strings.Builder
		for _, d := range delays {
			if d < base/2 || d > cap {
				t.Fatalf("delay %v outside [base/2, cap] = [%v, %v]", d, base/2, cap)
			}
			fmt.Fprintf(&sb, "%v;", d)
		}
		return sb.String()
	}
	a := run(3)
	b := run(3)
	if a != b {
		t.Fatalf("same-seed retry timing diverged:\n%s\n%s", a, b)
	}
	if c := run(4); c == a {
		t.Fatalf("different retry seeds produced identical timing: %s", a)
	}
}
