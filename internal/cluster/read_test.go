package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/allocgate"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// historicalReadObject is the straight-line object read that ReadRun
// replaced, kept as the oracle of TestReadRunMatchesStraightLine: the
// process parks for each hop pair, the media lock, the fixed cost and
// the media time.
func historicalReadObject(c *Cluster, ctx vfsapi.Ctx, ino uint64, objIdx, objOff, seg int64, pin int) error {
	s := c.placement(ino, objIdx)
	m := pin
	if m < 0 {
		m = 0
		if c.replication > 1 {
			best := c.osds[s].Degraded()
			for r := 1; r < c.replication; r++ {
				if d := c.osds[(s+r)%len(c.osds)].Degraded(); d < best {
					best, m = d, r
				}
			}
		}
	}
	ms := (s + m) % len(c.osds)
	nsc := ctx.Span.Enter(obs.LayerNet)
	err := c.fabric.Request(ctx.P, ms, dataHdrBytes)
	nsc.Exit()
	if err != nil {
		return err
	}
	osc := ctx.Span.Enter(obs.LayerOSD)
	err = historicalOSDRead(c.osds[ms], ctx.P, seg)
	osc.Exit()
	if err != nil {
		return err
	}
	nsc = ctx.Span.Enter(obs.LayerNet)
	err = c.fabric.Reply(ctx.P, ms, dataRepBytes+seg)
	nsc.Exit()
	return err
}

func historicalOSDRead(o *OSD, p *sim.Proc, n int64) error {
	if o.down {
		return ErrOSDDown
	}
	o.media.Lock(p)
	if o.down {
		o.media.Unlock(p)
		return ErrOSDDown
	}
	p.Sleep(o.params.OSDOpCost)
	mt := o.mediaTime(n)
	p.Sleep(mt)
	p.ReportWait("osd", "osd.media", "", 0, o.params.OSDOpCost+mt)
	if o.down {
		o.media.Unlock(p)
		return ErrOSDDown
	}
	o.bytesRead += uint64(n)
	o.ops++
	o.media.Unlock(p)
	return nil
}

// historicalRead is Read (pin < 0) or ReadReplica as the straight line
// made them.
func historicalRead(c *Cluster, ctx vfsapi.Ctx, ino uint64, off, n int64, pin int) error {
	if pin >= 0 {
		pin %= c.replication
	}
	return c.eachObject(off, n, func(objIdx, objOff, seg int64) error {
		return historicalReadObject(c, ctx, ino, objIdx, objOff, seg, pin)
	})
}

// readCall is one read of a client in a read scenario, issued after gap:
// routed (pin < 0) or pinned to a group member, and made in the process
// (Read, ReadReplica) or, with then, by ReadThen from the process parked
// once.
type readCall struct {
	gap    time.Duration
	file   int
	off, n int64
	pin    int
	then   bool
}

// readFault arms a fault at at and disarms it at until: a crash,
// degradation or partition of OSD osd, or a drop window on the client
// NIC.
type readFault struct {
	at, until time.Duration
	kind      string // "crash", "degrade", "partition" or "drop"
	osd       int
}

type readScenario struct {
	replication int
	clients     [][]readCall
	faults      []readFault
}

type readResult struct {
	at  time.Duration
	err error
}

type readOutcome struct {
	results [][]readResult
	events  []time.Duration // the time of every engine event, in order
	waits   []metaWait
	slices  []obs.SliceEvent
	osds    []string
}

const readFiles = 3

func randomReadScenario(rng *rand.Rand) readScenario {
	size := model.Default().ObjectSize
	sc := readScenario{replication: 1 + rng.Intn(3)}
	for range 1 + rng.Intn(6) {
		var calls []readCall
		for range 1 + rng.Intn(8) {
			call := readCall{gap: time.Duration(rng.Intn(300)) * time.Microsecond, file: rng.Intn(readFiles), pin: -1, then: rng.Intn(2) == 0}
			switch rng.Intn(3) {
			case 0: // within an object
				call.off, call.n = rng.Int63n(size), 1+rng.Int63n(256<<10)
			case 1: // across an object boundary
				call.off, call.n = size-rng.Int63n(128<<10)-1, 1+rng.Int63n(512<<10)
			default: // over two or three objects
				call.off, call.n = rng.Int63n(size), size+rng.Int63n(size)
			}
			if !call.then && rng.Intn(3) == 0 {
				call.pin = rng.Intn(3)
			}
			calls = append(calls, call)
		}
		sc.clients = append(sc.clients, calls)
	}
	for range rng.Intn(4) {
		f := readFault{
			at:   time.Duration(rng.Intn(3000)) * time.Microsecond,
			kind: []string{"crash", "degrade", "partition", "drop"}[rng.Intn(4)],
			osd:  rng.Intn(4),
		}
		f.until = f.at + time.Duration(1+rng.Intn(2000))*time.Microsecond
		sc.faults = append(sc.faults, f)
	}
	return sc
}

// runReadScenario runs sc with each read through the run, or with
// historical through the straight-line oracle.
func runReadScenario(sc readScenario, historical bool) readOutcome {
	e := sim.NewEngine()
	c := New(e, model.Default(), 4)
	c.SetReplication(sc.replication)
	inos := make([]uint64, readFiles)
	for i := range inos {
		path := fmt.Sprintf("/f%d", i)
		c.Provision(path, 3*c.params.ObjectSize)
		n, _ := c.Tree().Lookup(path)
		inos[i] = n.Ino
	}
	rec := obs.New(obs.Config{Clock: e.Now})
	var out readOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events = append(out.events, ev.At)
		}
	})
	e.SetWaitObserver(func(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
		out.waits = append(out.waits, metaWait{proc: proc, kind: kind, resource: resource, start: start, dur: dur, holder: holder, holderID: holderID})
	})
	for _, ft := range sc.faults {
		o := c.osds[ft.osd]
		arm := func(on bool) {
			switch ft.kind {
			case "crash":
				if on {
					o.Crash()
				} else {
					o.Restart()
				}
			case "degrade":
				o.SetDegraded(map[bool]float64{true: 4, false: 1}[on])
			case "partition":
				c.fabric.Servers[ft.osd].SetPartitioned(on)
			case "drop":
				c.fabric.Client.RX.SetDropEvery(map[bool]uint64{true: 3, false: 0}[on])
			}
		}
		e.After(ft.at, func() { arm(true) })
		e.After(ft.until, func() { arm(false) })
	}
	out.results = make([][]readResult, len(sc.clients))
	for i, calls := range sc.clients {
		e.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			var err error
			then := func(e error) {
				err = e
				p.ResumeHere()
			}
			for _, call := range calls {
				p.Sleep(call.gap)
				ctx := vfsapi.Ctx{P: p, Span: rec.StartSpan(p.ID(), "app", "read")}
				ino := inos[call.file]
				switch {
				case historical:
					err = historicalRead(c, ctx, ino, call.off, call.n, call.pin)
				case call.then:
					c.ReadThen(ctx, ino, call.off, call.n, then)
					p.Park()
				case call.pin >= 0:
					err = c.ReadReplica(ctx, ino, call.off, call.n, call.pin)
				default:
					err = c.Read(ctx, ino, call.off, call.n)
				}
				ctx.Span.End(0, err)
				out.results[i] = append(out.results[i], readResult{at: e.Now(), err: err})
			}
		})
	}
	e.Run()
	out.slices = rec.Slices()
	for _, o := range c.osds {
		out.osds = append(out.osds, fmt.Sprintf("%d/%d/%+v", o.BytesRead(), o.Ops(), o.media.Stats()))
	}
	return out
}

// TestReadRunMatchesStraightLine runs random read scenarios — up to six
// clients reading within, across and over several objects, routed,
// pinned to a group member or continued by ReadThen, over replication 1
// to 3, with OSDs crashing, degrading and partitioned and replies
// dropped — once through ReadRun and once through the straight-line
// read it replaced: every read must return at the same time with the
// same error, every engine event must fall at the same time, and the
// wait reports, the obs layer slices and the OSD counters and media
// lock statistics must agree.
func TestReadRunMatchesStraightLine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reached := map[string]int{}
	for n := 0; n < 400; n++ {
		sc := randomReadScenario(rng)
		want := runReadScenario(sc, true)
		got := runReadScenario(sc, false)
		for i := range want.results {
			if !slices.EqualFunc(got.results[i], want.results[i], func(g, w readResult) bool { return g.at == w.at && errors.Is(g.err, w.err) }) {
				t.Fatalf("scenario %d client %d: reads return %v, historical %v", n, i, got.results[i], want.results[i])
			}
			for _, w := range want.results[i] {
				if w.err == nil {
					reached["served"]++
				} else {
					reached[w.err.Error()]++
				}
			}
		}
		if !slices.Equal(got.events, want.events) {
			t.Fatalf("scenario %d: %d engine events, historical %d, or at other times", n, len(got.events), len(want.events))
		}
		if !slices.Equal(got.waits, want.waits) {
			t.Fatalf("scenario %d: wait reports differ:\n got %v\nwant %v", n, got.waits, want.waits)
		}
		if !slices.Equal(got.slices, want.slices) {
			t.Fatalf("scenario %d: layer slices differ:\n got %v\nwant %v", n, got.slices, want.slices)
		}
		if !slices.Equal(got.osds, want.osds) {
			t.Fatalf("scenario %d: OSD counters %v, historical %v", n, got.osds, want.osds)
		}
		if slices.ContainsFunc(want.waits, func(w metaWait) bool { return w.kind == "lock" && w.resource == "osd.media" }) {
			reached["osd.media contended"]++
		}
	}
	for _, path := range []string{"served", "osd.media contended", "cluster: osd down", "netsim: link partitioned", "netsim: message dropped"} {
		if reached[path] == 0 {
			t.Errorf("no scenario reached %q (reached: %v)", path, reached)
		}
	}
	t.Logf("paths reached: %v", reached)
}

// TestReadRunParksOnce pins what the run buys: a two-object read whose
// hops and media queue behind other clients parks its process once.
func TestReadRunParksOnce(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, model.Default(), 2)
	c.Provision("/f", 8<<20)
	n, _ := c.Tree().Lookup("/f")
	for range 3 {
		e.Go("client", func(p *sim.Proc) {
			for range 4 {
				before := p.Parks()
				if err := c.Read(vfsapi.Ctx{P: p}, n.Ino, 4<<20-64<<10, 128<<10); err != nil {
					t.Fatal(err)
				}
				if got := p.Parks() - before; got != 1 {
					t.Errorf("proc %d parked %d times during one read, want 1", p.ID(), got)
				}
			}
		})
	}
	e.Run()
	if c.osds[0].media.Stats().Contended+c.osds[1].media.Stats().Contended == 0 {
		t.Fatal("no read queued for osd.media")
	}
}

// BenchmarkObjectRead has four clients read 128 KiB across an object
// boundary, so the hops and the OSD media queue. One op is one read.
func BenchmarkObjectRead(b *testing.B) { allocgate.Bench(b, objectRead) }

func objectRead(n int) func() {
	e := sim.NewEngine()
	c := New(e, model.Default(), 2)
	c.Provision("/f", 8<<20)
	f, _ := c.Tree().Lookup("/f")
	const clients = 4
	for i := 0; i < clients; i++ {
		per := allocgate.Share(n, clients, i)
		e.Go("client", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				c.Read(vfsapi.Ctx{P: p}, f.Ino, 4<<20-64<<10, 128<<10)
			}
		})
	}
	return e.Run
}
