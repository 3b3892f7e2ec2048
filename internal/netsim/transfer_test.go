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

// flowSpec is one flow's messages: per message, a transfer on link
// links[j] (route 0), or a Fabric.Request to (route 1) or Reply from
// (route 2) server links[j].
type flowSpec struct {
	links  []int
	routes []int
	sizes  []int64
	gaps   []time.Duration
}

// faultSpec arms or disarms one fault on one link at a fixed time.
type faultSpec struct {
	at    time.Duration
	link  int
	kind  int // 0: extra latency, 1: drop every, 2: partition
	value int64
}

// transferScenario is a random schedule of messages over links. The
// fabric's client NIC is links 0 and 1 (TX, RX) and server s's NIC is
// links 2+2s and 3+2s, all modulo the link count, so routes share links
// with each other and with plain transfers.
type transferScenario struct {
	links   []linkSpec
	servers int
	flows   []flowSpec
	faults  []faultSpec
}

func randomTransferScenario(rng *rand.Rand) transferScenario {
	sc := transferScenario{servers: 1 + rng.Intn(2)}
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
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
			route, link := 0, rng.Intn(len(sc.links))
			if rng.Intn(2) == 0 {
				route, link = 1+rng.Intn(2), rng.Intn(sc.servers)
			}
			f.links = append(f.links, link)
			f.routes = append(f.routes, route)
			f.sizes = append(f.sizes, size)
			f.gaps = append(f.gaps, gap)
		}
		sc.flows = append(sc.flows, f)
	}
	for i, n := 0, rng.Intn(12); i < n; i++ {
		sc.faults = append(sc.faults, randomFault(rng, sc, time.Duration(rng.Intn(5000))*time.Microsecond))
	}
	return sc
}

func randomFault(rng *rand.Rand, sc transferScenario, at time.Duration) faultSpec {
	f := faultSpec{at: at, link: rng.Intn(len(sc.links)), kind: rng.Intn(3)}
	switch f.kind {
	case 0:
		f.value = int64(rng.Intn(3)) * int64(100*time.Microsecond)
	case 1:
		f.value = int64(rng.Intn(4))
	case 2:
		f.value = int64(rng.Intn(2))
	}
	return f
}

// addHopFaults arms faults exactly at the instants where the first hop
// of a route ended in a fault-free probe run, so that a drop window
// arming there catches the first hop's message, and a partition or
// spike arming there catches the second hop as it starts.
func addHopFaults(rng *rand.Rand, sc *transferScenario, probe transferOutcome) {
	if len(probe.hops) == 0 {
		return
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		sc.faults = append(sc.faults, randomFault(rng, *sc, probe.hops[rng.Intn(len(probe.hops))]))
	}
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
	hops        []time.Duration // historical only: when each route's first hop ended
	hopErrs     int             // historical only: routes failed on their first hop
}

func runTransferScenario(sc transferScenario, historical bool) transferOutcome {
	e := sim.NewEngine()
	var out transferOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events++
		}
	})
	e.SetWaitObserver(func(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
		out.waits = append(out.waits, transferWait{proc, kind, resource, holder, holderID, start, dur})
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
	nic := func(i int) *NIC {
		return &NIC{TX: links[i%len(links)], RX: links[(i+1)%len(links)]}
	}
	fab := &Fabric{Client: nic(0)}
	for s := range sc.servers {
		fab.Servers = append(fab.Servers, nic(2+2*s))
	}
	// historicalHops is the straight-line pair of transfers that
	// Fabric.Request and Reply replaced.
	historicalHops := func(p *sim.Proc, first, second *Link, n int64) error {
		if err := historicalTransfer(first, p, n); err != nil {
			out.hopErrs++
			return err
		}
		out.hops = append(out.hops, p.Now())
		return historicalTransfer(second, p, n)
	}
	out.results = make([][]transferResult, len(sc.flows))
	for i, f := range sc.flows {
		e.Go("flow", func(p *sim.Proc) {
			for j, li := range f.links {
				p.Sleep(f.gaps[j])
				var err error
				n := f.sizes[j]
				switch {
				case f.routes[j] == 0 && historical:
					err = historicalTransfer(links[li], p, n)
				case f.routes[j] == 0:
					err = links[li].Transfer(p, n)
				case f.routes[j] == 1 && historical:
					err = historicalHops(p, fab.Client.TX, fab.Servers[li].RX, n)
				case f.routes[j] == 1:
					err = fab.Request(p, li, n)
				case historical:
					err = historicalHops(p, fab.Servers[li].TX, fab.Client.RX, n)
				default:
					err = fab.Reply(p, li, n)
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
// against the per-chunk Lock/Sleep/Unlock loop it replaced, and of
// Fabric.Request and Reply against two such loops one after the other:
// over random concurrent flows sharing links of random bandwidth,
// latency and MTU, with messages of zero, sub-MTU and many-MTU sizes,
// and engine callbacks arming and disarming latency spikes, drops and
// partitions in the middle of transfers and exactly at the instants
// where a route's first hop ends, every message must return at the
// same time with the same error, the wait reports must match in order,
// and the byte and message counters and the engine event count must
// agree.
func TestTransferMatchesHistoricalLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var hopErrs int
	for n := 0; n < 500; n++ {
		sc := randomTransferScenario(rng)
		addHopFaults(rng, &sc, runTransferScenario(sc, true))
		want := runTransferScenario(sc, true)
		hopErrs += want.hopErrs
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
	if hopErrs == 0 {
		t.Fatal("no route failed on its first hop")
	}
	t.Logf("%d routes failed on their first hop", hopErrs)
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

// TestFabricParksOnce pins what running both hops as one run buys: a
// Request whose hops queue behind other flows parks its process once,
// and so does one whose first hop is dropped.
func TestFabricParksOnce(t *testing.T) {
	e := sim.NewEngine()
	f := NewFabric(e, model.Default(), 1)
	for i := range 3 {
		e.Go("rpc", func(p *sim.Proc) {
			for j := range 4 {
				if i == 0 && j == 2 {
					f.Client.TX.SetDropEvery(1)
				}
				before := p.Parks()
				err := f.Request(p, 0, 256<<10)
				if n := p.Parks() - before; n != 1 {
					t.Errorf("proc %d parked %d times during one Request (err %v), want 1", p.ID(), n, err)
				}
			}
		})
	}
	e.Run()
	if f.Client.TX.Messages() <= f.Servers[0].RX.Messages() {
		t.Fatalf("client TX carried %d messages, server RX %d: no first hop was dropped", f.Client.TX.Messages(), f.Servers[0].RX.Messages())
	}
}

// TestHotPathAllocs holds a contended multi-chunk transfer and a
// two-hop request allocation-free once the link's transfer pool and the
// fabric's route pool are warm.
func TestHotPathAllocs(t *testing.T) {
	allocgate.Check(t, []allocgate.Case{
		{Name: "TransferContended", Body: transferContended, N: 2000},
		{Name: "FabricRequest", Body: fabricRequest, N: 2000},
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

// BenchmarkFabricRequest has four flows send 128 KiB requests across
// the client NIC and one server NIC of the testbed fabric, so both hops
// queue for their links. One op is one two-hop request.
func BenchmarkFabricRequest(b *testing.B) { allocgate.Bench(b, fabricRequest) }

func fabricRequest(n int) func() {
	e := sim.NewEngine()
	f := NewFabric(e, model.Default(), 1)
	const flows = 4
	for i := 0; i < flows; i++ {
		per := allocgate.Share(n, flows, i)
		e.Go("rpc", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				f.Request(p, 0, 128<<10)
			}
		})
	}
	return e.Run
}
