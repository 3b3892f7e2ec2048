package netsim

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/model"
	"repro/internal/sim"
)

// historicalTransfer is the oracle for TestTransferMatchesHistoricalLoop:
// the per-chunk loop that Transfer's callback-driven state replaced. Per
// chunk it takes the xmit lock, sleeps the transmission time, releases
// the lock and reports the net wait; after the last chunk it sleeps the
// propagation delay.
func historicalTransfer(l *Link, p *sim.Proc, n int64) error {
	if l.partitioned {
		d := l.latency + l.extraLatency
		p.Sleep(d)
		p.ReportWait("net", l.name, "", 0, d)
		return ErrPartitioned
	}
	if n < 0 {
		n = 0
	}
	l.msgs++
	l.bytes += uint64(n)
	for n > 0 {
		chunk := l.mtu
		if n < chunk {
			chunk = n
		}
		l.xmit.Lock(p)
		tx := model.RateTime(chunk, l.bps)
		p.Sleep(tx)
		l.xmit.Unlock(p)
		p.ReportWait("net", l.name, "", 0, tx)
		n -= chunk
	}
	d := l.latency + l.extraLatency
	p.Sleep(d)
	p.ReportWait("net", l.name, "", 0, d)
	if l.dropEvery > 0 {
		l.dropCount++
		if l.dropCount%l.dropEvery == 0 {
			return ErrDropped
		}
	}
	return nil
}

type linkSpec struct {
	bps     int64
	latency time.Duration
	mtu     int64
}

type flowSpec struct {
	links []int // per transfer, the link it crosses
	sizes []int64
	gaps  []time.Duration
}

// faultSpec arms or disarms one fault on one link at a fixed time.
type faultSpec struct {
	at    time.Duration
	link  int
	kind  int // 0: extra latency, 1: drop every, 2: partition
	value int64
}

type transferScenario struct {
	links  []linkSpec
	flows  []flowSpec
	faults []faultSpec
}

func randomTransferScenario(rng *rand.Rand) transferScenario {
	var sc transferScenario
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sc.links = append(sc.links, linkSpec{
			bps:     int64(1+rng.Intn(64)) << 20,
			latency: time.Duration(rng.Intn(200)) * time.Microsecond,
			mtu:     int64(1+rng.Intn(16)) << 10,
		})
	}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		var f flowSpec
		for j, m := 0, 1+rng.Intn(8); j < m; j++ {
			var size int64
			switch rng.Intn(4) {
			case 0: // a bare ack
			case 1: // within one MTU
				size = 1 + rng.Int63n(4<<10)
			default: // many chunks, some a whole number of MTUs
				size = int64(1+rng.Intn(64)) << 10
				if rng.Intn(2) == 0 {
					size += rng.Int63n(1 << 10)
				}
			}
			var gap time.Duration
			if rng.Intn(2) == 0 {
				gap = time.Duration(rng.Intn(500)) * time.Microsecond
			}
			f.links = append(f.links, rng.Intn(len(sc.links)))
			f.sizes = append(f.sizes, size)
			f.gaps = append(f.gaps, gap)
		}
		sc.flows = append(sc.flows, f)
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		f := faultSpec{at: time.Duration(rng.Intn(5000)) * time.Microsecond, link: rng.Intn(len(sc.links)), kind: rng.Intn(3)}
		switch f.kind {
		case 0:
			f.value = int64(rng.Intn(3)) * int64(100*time.Microsecond)
		case 1:
			f.value = int64(rng.Intn(4))
		case 2:
			f.value = int64(rng.Intn(2))
		}
		sc.faults = append(sc.faults, f)
	}
	return sc
}

type transferWait struct {
	proc                   int
	kind, resource, holder string
	holderID               int
	start, dur             time.Duration
}

type transferResult struct {
	at  time.Duration
	err error
}

// transferOutcome is everything TestTransferMatchesHistoricalLoop
// requires the two implementations to agree on.
type transferOutcome struct {
	results     [][]transferResult // per flow, per transfer
	waits       []transferWait
	bytes, msgs []uint64 // per link
	events      int
}

func runTransferScenario(sc transferScenario, historical bool) transferOutcome {
	e := sim.NewEngine()
	var out transferOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events++
		}
	})
	e.SetWaitObserver(func(p *sim.Proc, kind, resource, holder string, holderID int, start, dur time.Duration) {
		out.waits = append(out.waits, transferWait{p.ID(), kind, resource, holder, holderID, start, dur})
	})
	links := make([]*Link, len(sc.links))
	for i, ls := range sc.links {
		links[i] = NewLink(e, string(rune('a'+i)), ls.bps, ls.latency, ls.mtu)
	}
	for _, f := range sc.faults {
		l := links[f.link]
		e.After(f.at, func() {
			switch f.kind {
			case 0:
				l.SetExtraLatency(time.Duration(f.value))
			case 1:
				l.SetDropEvery(uint64(f.value))
			case 2:
				l.SetPartitioned(f.value != 0)
			}
		})
	}
	out.results = make([][]transferResult, len(sc.flows))
	for i, f := range sc.flows {
		e.Go("flow", func(p *sim.Proc) {
			for j, li := range f.links {
				p.Sleep(f.gaps[j])
				var err error
				if historical {
					err = historicalTransfer(links[li], p, f.sizes[j])
				} else {
					err = links[li].Transfer(p, f.sizes[j])
				}
				out.results[i] = append(out.results[i], transferResult{p.Now(), err})
			}
		})
	}
	e.Run()
	for _, l := range links {
		out.bytes = append(out.bytes, l.Bytes())
		out.msgs = append(out.msgs, l.Messages())
	}
	return out
}

// TestTransferMatchesHistoricalLoop is a differential test of Transfer
// against the per-chunk Lock/Sleep/Unlock loop it replaced: over random
// concurrent flows sharing links of random bandwidth, latency and MTU,
// with transfers of zero, sub-MTU and many-MTU sizes, and engine
// callbacks arming and disarming latency spikes, drops and partitions
// in the middle of transfers, every transfer must return at the same
// time with the same error, the wait reports must match in order, and
// the byte and message counters and the engine event count must agree.
func TestTransferMatchesHistoricalLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		sc := randomTransferScenario(rng)
		want := runTransferScenario(sc, true)
		got := runTransferScenario(sc, false)
		for i := range want.results {
			if !slices.Equal(got.results[i], want.results[i]) {
				t.Fatalf("scenario %d flow %d: transfers return %v, historical loop %v", n, i, got.results[i], want.results[i])
			}
		}
		if !slices.Equal(got.waits, want.waits) {
			t.Fatalf("scenario %d: wait reports differ:\n got %v\nwant %v", n, got.waits, want.waits)
		}
		if !slices.Equal(got.bytes, want.bytes) || !slices.Equal(got.msgs, want.msgs) {
			t.Fatalf("scenario %d: links carried %v bytes in %v messages, historical loop %v in %v", n, got.bytes, got.msgs, want.bytes, want.msgs)
		}
		if got.events != want.events {
			t.Fatalf("scenario %d: %d engine events, historical loop %d", n, got.events, want.events)
		}
	}
}

// TestTransferParksOnce pins what the transfer state buys: a contended
// multi-chunk transfer resumes its process exactly once.
func TestTransferParksOnce(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<20, time.Millisecond, 4<<10)
	resumes := map[int]int{}
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind == sim.TraceResume {
			resumes[ev.ProcID]++
		}
	})
	for range 3 {
		e.Go("tx", func(p *sim.Proc) {
			before := resumes[p.ID()]
			l.Transfer(p, 64<<10)
			if n := resumes[p.ID()] - before; n != 1 {
				t.Errorf("proc %d resumed %d times during one Transfer, want 1", p.ID(), n)
			}
		})
	}
	e.Run()
}

// TestHotPathAllocs holds a contended multi-chunk transfer
// allocation-free once the link's transfer pool is warm.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "TransferContended", Body: transferContended, N: 2000},
	})
}

// BenchmarkTransferContended has four flows share one link, each
// sending 16-chunk messages, so every chunk queues for the xmit lock.
// One op is one transfer.
func BenchmarkTransferContended(b *testing.B) { allocgate.Bench(b, transferContended) }

func transferContended(n int) func() {
	e := sim.NewEngine()
	l := NewLink(e, "l", 1<<30, 10*time.Microsecond, 4<<10)
	const flows = 4
	for i := 0; i < flows; i++ {
		per := allocgate.Share(n, flows, i)
		e.Go("tx", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				l.Transfer(p, 64<<10)
			}
		})
	}
	return e.Run
}
