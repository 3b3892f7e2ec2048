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

// historicalMDSRPC is the straight-line metadata round trip that
// MetaRun replaced, kept as the oracle of
// TestMDSRPCMatchesHistoricalLoop: the process parks for each hop pair,
// the stall, the mds.cpu lock and the processing time.
func historicalMDSRPC(c *Cluster, ctx vfsapi.Ctx, op func() error) error {
	defer ctx.Span.Enter(obs.LayerMDS).Exit()
	nsc := ctx.Span.Enter(obs.LayerNet)
	err := c.fabric.Request(ctx.P, c.mdsServer(), metaReqBytes)
	nsc.Exit()
	if err != nil {
		return err
	}
	for c.mds.stalled {
		c.mds.stallQ.Wait(ctx.P)
	}
	c.mds.cpu.Lock(ctx.P)
	ctx.P.Sleep(c.params.MDSOpCost)
	ctx.P.ReportWait("mds", "mds.cpu", "", 0, c.params.MDSOpCost)
	c.mds.ops++
	err = op()
	c.mds.cpu.Unlock(ctx.P)
	nsc = ctx.Span.Enter(obs.LayerNet)
	rerr := c.fabric.Reply(ctx.P, c.mdsServer(), metaRepBytes)
	nsc.Exit()
	if rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// metaCall is one request of a client in a metadata scenario, issued
// after gap.
type metaCall struct {
	gap time.Duration
	q   MetaQuery
}

// metaFault arms a fault at at and disarms it at until: a stall of the
// MDS, or a partition or drop window on one of the four links a round
// trip crosses.
type metaFault struct {
	at, until time.Duration
	kind      string // "stall", "partition" or "drop"
	link      int    // client TX, MDS RX, MDS TX, client RX
	every     uint64 // a drop window's period
}

type metaScenario struct {
	clients [][]metaCall
	faults  []metaFault
}

type metaResult struct {
	at  time.Duration
	rep MetaReply
	err error
}

type metaWait struct {
	proc           int
	kind, resource string
	start, dur     time.Duration
	holder         string
	holderID       int
}

type metaOutcome struct {
	results [][]metaResult
	events  []time.Duration // the time of every engine event, in order
	waits   []metaWait
	slices  []obs.SliceEvent
	lock    sim.LockStats
	ops     uint64
	tree    string
}

var metaPaths = []string{"/d/a", "/d/b", "/d/c"}

func randomMetaScenario(rng *rand.Rand) metaScenario {
	var sc metaScenario
	for range 1 + rng.Intn(6) {
		var calls []metaCall
		for range 1 + rng.Intn(8) {
			q := MetaQuery{Op: MetaOp(rng.Intn(int(MetaSetSize) + 1)), Path: metaPaths[rng.Intn(len(metaPaths))]}
			switch q.Op {
			case MetaMkdir, MetaRmdir:
				q.Path = "/d/sub"
			case MetaReaddir:
				q.Path = "/d"
			case MetaRename:
				q.Path2 = metaPaths[rng.Intn(len(metaPaths))]
			case MetaSetSize:
				q.Size = rng.Int63n(1 << 20)
			}
			calls = append(calls, metaCall{gap: time.Duration(rng.Intn(300)) * time.Microsecond, q: q})
		}
		sc.clients = append(sc.clients, calls)
	}
	for range rng.Intn(4) {
		f := metaFault{
			at:    time.Duration(rng.Intn(2000)) * time.Microsecond,
			kind:  []string{"stall", "partition", "drop"}[rng.Intn(3)],
			link:  rng.Intn(4),
			every: uint64(1 + rng.Intn(3)),
		}
		f.until = f.at + time.Duration(1+rng.Intn(1500))*time.Microsecond
		sc.faults = append(sc.faults, f)
	}
	return sc
}

// runMetaScenario runs sc with each request through the run, or with
// historical through the straight-line oracle.
func runMetaScenario(sc metaScenario, historical bool) metaOutcome {
	e := sim.NewEngine()
	c := New(e, model.Default(), 2)
	c.ProvisionDir("/d")
	c.Provision("/d/a", 4096)
	rec := obs.New(obs.Config{Clock: e.Now})
	var out metaOutcome
	e.SetTracer(func(ev sim.TraceEvent) {
		if ev.Kind != sim.TraceFinish {
			out.events = append(out.events, ev.At)
		}
	})
	e.SetWaitObserver(func(proc int, kind, resource, holder string, holderID int, start, dur time.Duration) {
		out.waits = append(out.waits, metaWait{proc: proc, kind: kind, resource: resource, start: start, dur: dur, holder: holder, holderID: holderID})
	})
	f := c.fabric
	for _, ft := range sc.faults {
		l := [4]interface {
			SetPartitioned(bool)
			SetDropEvery(uint64)
		}{f.Client.TX, f.Servers[c.mdsServer()].RX, f.Servers[c.mdsServer()].TX, f.Client.RX}[ft.link]
		arm := func(on bool) {
			switch ft.kind {
			case "stall":
				c.SetMDSStalled(on)
			case "partition":
				l.SetPartitioned(on)
			case "drop":
				every := ft.every
				if !on {
					every = 0
				}
				l.SetDropEvery(every)
			}
		}
		e.After(ft.at, func() { arm(true) })
		e.After(ft.until, func() { arm(false) })
	}
	out.results = make([][]metaResult, len(sc.clients))
	for i, calls := range sc.clients {
		e.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			for _, call := range calls {
				p.Sleep(call.gap)
				ctx := vfsapi.Ctx{P: p, Span: rec.StartSpan(p.ID(), "app", "meta")}
				var rep MetaReply
				var err error
				if historical {
					q := call.q
					err = historicalMDSRPC(c, ctx, func() error { return c.apply(&q, &rep) })
				} else {
					r := c.StartMeta(ctx, call.q, nil)
					p.Park()
					rep, err = r.Finish()
				}
				ctx.Span.End(0, err)
				out.results[i] = append(out.results[i], metaResult{at: e.Now(), rep: rep, err: err})
			}
		})
	}
	e.Run()
	out.slices = rec.Slices()
	out.lock = c.mds.cpu.Stats()
	out.ops = c.MDSOps()
	for _, path := range append([]string{"/d", "/d/sub"}, metaPaths...) {
		if n, err := c.Tree().Lookup(path); err == nil {
			out.tree += fmt.Sprintf("%s:%d@%v ", path, n.Size, n.MTime)
		}
	}
	return out
}

// TestMDSRPCMatchesHistoricalLoop runs random metadata scenarios — up to
// six clients contending for mds.cpu, under MDS stall windows and
// partition and drop windows on every link of the round trip — once
// through MetaRun and once through the straight-line round trip it
// replaced: every request must return at the same time with the same
// reply and error, every engine event must fall at the same time, and
// the wait reports, the obs layer slices, the mds.cpu statistics and the
// namespace must agree.
func TestMDSRPCMatchesHistoricalLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reached := map[string]int{}
	for n := 0; n < 400; n++ {
		sc := randomMetaScenario(rng)
		want := runMetaScenario(sc, true)
		got := runMetaScenario(sc, false)
		for i := range want.results {
			if len(got.results[i]) != len(want.results[i]) {
				t.Fatalf("scenario %d client %d: %d requests returned, historical %d", n, i, len(got.results[i]), len(want.results[i]))
			}
			for j, w := range want.results[i] {
				g := got.results[i][j]
				if g.at != w.at || !errors.Is(g.err, w.err) || g.rep.Info != w.rep.Info || g.rep.Ino != w.rep.Ino || !slices.Equal(g.rep.Ents, w.rep.Ents) {
					t.Fatalf("scenario %d client %d request %d: %+v, historical %+v", n, i, j, g, w)
				}
				switch {
				case w.err == nil:
					reached["served"]++
				case errors.Is(w.err, vfsapi.ErrNotExist), errors.Is(w.err, vfsapi.ErrExist), errors.Is(w.err, vfsapi.ErrNotEmpty), errors.Is(w.err, vfsapi.ErrNotDir), errors.Is(w.err, vfsapi.ErrIsDir):
					reached["operation error"]++
				default:
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
		if got.lock != want.lock || got.ops != want.ops || got.tree != want.tree {
			t.Fatalf("scenario %d: mds.cpu %+v, %d ops, tree %q; historical %+v, %d ops, %q", n, got.lock, got.ops, got.tree, want.lock, want.ops, want.tree)
		}
		if want.lock.Contended > 0 {
			reached["mds.cpu contended"]++
		}
		if slices.ContainsFunc(want.waits, func(w metaWait) bool { return w.resource == "mds.stall" }) {
			reached["stalled"]++
		}
	}
	for _, path := range []string{"served", "operation error", "mds.cpu contended", "stalled", "netsim: link partitioned", "netsim: message dropped"} {
		if reached[path] == 0 {
			t.Errorf("no scenario reached %q (reached: %v)", path, reached)
		}
	}
	t.Logf("paths reached: %v", reached)
}

// TestMetaRunParksOnce pins what the run buys: a round trip whose hops
// and mds.cpu queue behind other clients parks its process once, and so
// does one whose request is dropped.
func TestMetaRunParksOnce(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, model.Default(), 2)
	c.ProvisionDir("/d")
	for i := range 3 {
		e.Go("client", func(p *sim.Proc) {
			for j := range 4 {
				if i == 0 && j == 2 {
					c.fabric.Client.TX.SetDropEvery(1)
				}
				before := p.Parks()
				_, err := c.Meta(vfsapi.Ctx{P: p}, MetaQuery{Op: MetaLookup, Path: "/d"})
				if n := p.Parks() - before; n != 1 {
					t.Errorf("proc %d parked %d times during one lookup (err %v), want 1", p.ID(), n, err)
				}
			}
			c.fabric.Client.TX.SetDropEvery(0)
		})
	}
	e.Run()
	if c.mds.cpu.Stats().Contended == 0 {
		t.Fatal("no lookup queued for mds.cpu")
	}
}

// TestReaddirReplyIsNet pins where a readdir's entries travel: the
// transfer that follows the MDS reply is charged to the net layer, as
// every other fabric transfer is, not to the caller's.
func TestReaddirReplyIsNet(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, model.Default(), 2)
	for _, f := range []string{"/d/a", "/d/b", "/d/c"} {
		c.Provision(f, 0)
	}
	rec := obs.New(obs.Config{Clock: e.Now})
	var rpc time.Duration // the end of the round trip proper
	e.Go("client", func(p *sim.Proc) {
		sp := rec.StartSpan(p.ID(), "app", "readdir")
		ctx := vfsapi.Ctx{P: p, Span: sp}
		sc := sp.Enter(obs.LayerClient)
		rep, err := c.Meta(ctx, MetaQuery{Op: MetaReaddir, Path: "/d"})
		sc.Exit()
		sp.End(0, err)
		if len(rep.Ents) != 3 || err != nil {
			t.Errorf("readdir: %v, %v", rep.Ents, err)
		}
	})
	e.Run()
	layer := func(s obs.SliceEvent) obs.Layer { return obs.Layer(rec.Str(s.Layer)) }
	for _, s := range rec.Slices() {
		if layer(s) == obs.LayerMDS {
			rpc = max(rpc, s.Start+s.Dur)
		}
	}
	var net, client time.Duration
	for _, s := range rec.Slices() {
		if s.Start < rpc {
			continue
		}
		switch layer(s) {
		case obs.LayerNet:
			net += s.Dur
		case obs.LayerClient:
			client += s.Dur
		}
	}
	if net <= 0 || client != 0 {
		t.Fatalf("after the round trip, %v under net and %v under client: want the entries' transfer under net", net, client)
	}
}

// BenchmarkMetaRPC has four clients look a path up at the MDS, so the
// hops and mds.cpu queue. One op is one round trip.
func BenchmarkMetaRPC(b *testing.B) { allocgate.Bench(b, metaRPC) }

func metaRPC(n int) func() {
	e := sim.NewEngine()
	c := New(e, model.Default(), 2)
	c.ProvisionDir("/d")
	const clients = 4
	for i := 0; i < clients; i++ {
		per := allocgate.Share(n, clients, i)
		e.Go("client", func(p *sim.Proc) {
			for j := 0; j < per; j++ {
				c.Meta(vfsapi.Ctx{P: p}, MetaQuery{Op: MetaLookup, Path: "/d"})
			}
		})
	}
	return e.Run
}
