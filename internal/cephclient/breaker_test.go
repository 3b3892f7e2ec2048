package cephclient

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

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
			Breaker: func(from, to cluster.BreakerState) {
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
