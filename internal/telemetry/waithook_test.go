package telemetry

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWaitHookOffersWhatTheMonitorKeeps runs one seeded stream of spans,
// ops and waits through a recorder whose wait hook feeds one monitor —
// the recorder offers the hook only cross-tenant waits — and offers a
// second monitor every attributed wait, as the hook once was. The
// stream holds waits with no holder span (a "" holder tenant), waits on
// a holder of the victim's own tenant, victims of the "" tenant and
// victims with no span. Both monitors must end with the same windows,
// totals and alert ledger.
func TestWaitHookOffersWhatTheMonitorKeeps(t *testing.T) {
	cfg := Config{
		FastWindow: 10 * time.Millisecond,
		SlowWindow: 40 * time.Millisecond,
		SLOs: []SLO{{Name: "p99", Target: 300 * time.Microsecond, Budget: 0.1,
			FireBurn: 2, ClearBurn: 1}},
	}
	hooked, every := New(cfg), New(cfg)
	now := time.Duration(0)
	rec := obs.New(obs.Config{Clock: func() time.Duration { return now }})
	hooks := 0
	rec.SetWaitHook(func(victim, aggressor string, start, dur time.Duration) {
		hooks++
		hooked.RecordWait(start+dur, dur, victim, aggressor)
	})
	rng := rand.New(rand.NewSource(1))
	tenants := []string{"a", "b", "c", ""}
	spans := map[int]*obs.Span{}
	var offered, noHolder, sameTenant, noVictim int
	for i := 0; i < 20000; i++ {
		now += time.Duration(rng.Intn(40)) * time.Microsecond
		proc := 1 + rng.Intn(6)
		if rng.Intn(8) == 0 {
			if sp := spans[proc]; sp != nil {
				sp.End(0, nil)
				delete(spans, proc)
				lat, failed := time.Duration(rng.Intn(1000))*time.Microsecond, rng.Intn(50) == 0
				for _, m := range []*Monitor{hooked, every} {
					m.RecordOp(now, sp.Tenant(), "read", lat, 4096, failed)
				}
			} else {
				spans[proc] = rec.StartSpan(proc, tenants[rng.Intn(len(tenants))], "read")
			}
			continue
		}
		holderID := rng.Intn(7)
		dur := time.Duration(1+rng.Intn(500)) * time.Microsecond
		rec.Wait(proc, "lock", "i_mutex", "h", holderID, now-dur, dur)
		sp := spans[proc]
		if sp == nil {
			noVictim++
			continue
		}
		offered++
		aggressor := ""
		if hs := spans[holderID]; holderID != 0 && hs != nil {
			aggressor = hs.Tenant()
		}
		switch aggressor {
		case "":
			noHolder++
		case sp.Tenant():
			sameTenant++
		}
		every.RecordWait(now, dur, sp.Tenant(), aggressor)
	}
	hooked.Finalize(now)
	every.Finalize(now)
	if noHolder == 0 || sameTenant == 0 || noVictim == 0 || hooks == 0 {
		t.Fatalf("stream: %d waits with no holder span, %d of the victim's tenant, %d with no victim span, %d hooked; want each",
			noHolder, sameTenant, noVictim, hooks)
	}
	if hooks >= offered {
		t.Fatalf("the hook saw %d of %d attributed waits; want only the cross-tenant ones", hooks, offered)
	}
	if len(every.Alerts()) == 0 {
		t.Fatal("the stream fired no alert")
	}
	if got, want := hooked.Windows(), every.Windows(); !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("window row %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
		t.Fatalf("%d window rows, want %d", len(got), len(want))
	}
	if got, want := hooked.Totals(), every.Totals(); !reflect.DeepEqual(got, want) {
		t.Fatalf("totals differ:\n got %+v\nwant %+v", got, want)
	}
	if got, want := hooked.Alerts(), every.Alerts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("alert ledgers differ:\n got %v\nwant %v", got, want)
	}
	t.Logf("hook saw %d of %d attributed waits", hooks, offered)
}
