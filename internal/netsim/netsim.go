// Package netsim models the network between the client host and the
// storage servers: duplex links with bandwidth serialization, one-way
// latency, and MTU-chunked pipelining so concurrent flows share a link
// fairly.
package netsim

import (
	"errors"
	"time"

	"repro/internal/model"
	"repro/internal/sim"
)

// Fault-injection errors. Both are returned after the caller has paid
// the full time cost of the failed transfer, so retries compound
// realistically.
var (
	// ErrPartitioned reports that the link is partitioned: the message
	// never arrives and the sender times out.
	ErrPartitioned = errors.New("netsim: link partitioned")
	// ErrDropped reports that this particular message was lost.
	ErrDropped = errors.New("netsim: message dropped")
)

// Link is one direction of a network interface: transfers serialize on
// the link at its configured bandwidth and then experience propagation
// latency.
type Link struct {
	eng     *sim.Engine
	name    string
	bps     int64
	latency time.Duration
	mtu     int64
	xmit    *sim.Mutex

	bytes uint64
	msgs  uint64

	// Fault-injection state, armed and disarmed by scheduled windows
	// (see internal/faults). All deterministic: no randomness.
	extraLatency time.Duration
	dropEvery    uint64 // drop every Nth message while armed (0 = off)
	dropCount    uint64
	partitioned  bool

	pool []*transfer // recycled Transfer states
}

// NewLink creates a unidirectional link.
func NewLink(eng *sim.Engine, name string, bytesPerSec int64, latency time.Duration, mtu int64) *Link {
	if mtu <= 0 {
		mtu = 64 << 10
	}
	return &Link{
		eng:     eng,
		name:    name,
		bps:     bytesPerSec,
		latency: latency,
		mtu:     mtu,
		xmit:    sim.NewMutex(eng, name+".xmit"),
	}
}

// Transfer moves n bytes across the link, blocking the caller for
// queueing + transmission + propagation. Transfers are chunked at the
// MTU so concurrent flows interleave instead of convoying. A zero-byte
// transfer (a bare ack) pays propagation latency only. The returned
// error is non-nil only under armed fault windows: a partitioned link
// times out without delivering, and a drop window loses every Nth
// message after its full transmission cost.
//
// The caller parks once: the chunks and the propagation delay run as
// callbacks of a pooled transfer (see transfer), and only the wake
// that ends the propagation delay resumes it.
func (l *Link) Transfer(p *sim.Proc, n int64) error {
	x := l.begin(p, n, nil)
	p.Park()
	return x.land()
}

// begin starts a transfer of n bytes for p, parked or about to park, and
// returns its state. With a nil then the transfer ends in p's wake,
// after which p calls land; otherwise in a callback that lands it and
// passes the error to then, so a callback may send for a parked
// process.
func (l *Link) begin(p *sim.Proc, n int64, then func(error)) *transfer {
	x := l.getTransfer()
	x.p, x.then, x.err = p, then, nil
	if l.partitioned {
		// The sender blocks for a timeout instead of a transmission; no
		// bytes are delivered.
		x.err = ErrPartitioned
		x.propagate()
		return x
	}
	x.n = max(n, 0)
	l.msgs++
	l.bytes += uint64(x.n)
	switch {
	case x.n == 0:
		x.propagate()
	case l.xmit.LockOrQueue(p, x.send):
		x.sendChunk()
	}
	return x
}

// transfer drives the chunks of one Transfer while its process stays
// parked. It is event-for-event identical to the historical loop, which
// per chunk took the xmit lock (parking until a handoff while it was
// held), slept the chunk's transmission time, released the lock and
// reported the net wait, and after the last chunk slept the propagation
// delay: where that loop pushed one engine event — the handoff wake, a
// chunk's sleep wake, the final sleep's wake — the transfer pushes one
// event of the same timestamp at the same position in engine seq order.
// Only the first two became callbacks (send, sent), and the last, for a
// transfer with a continuation, the landed callback; so the
// interleaving of simultaneous events and every virtual-time result
// stay bit for bit the same. TestTransferMatchesHistoricalLoop checks
// this against that loop.
type transfer struct {
	l    *Link
	p    *sim.Proc
	n    int64         // bytes not yet on the wire
	tx   time.Duration // transmission time of the chunk on the wire
	d    time.Duration // propagation delay after the last chunk
	err  error         // ErrPartitioned for a timed-out send
	then func(error)   // continuation once landed; nil: the process lands it

	send   func() // reusable xmit-grant callback (sendChunk)
	sent   func() // reusable chunk-end callback (chunkSent)
	landed func() // reusable propagation-end callback of a continuation (arrive)
}

// sendChunk puts the next chunk on the wire; x holds the xmit lock.
func (x *transfer) sendChunk() {
	l := x.l
	chunk := min(x.n, l.mtu)
	x.n -= chunk
	x.tx = model.RateTime(chunk, l.bps)
	l.eng.After(x.tx, x.sent)
}

// chunkSent ends the chunk on the wire: release the lock, then take it
// for the next chunk at once or queue for it, or after the last chunk
// propagate.
func (x *transfer) chunkSent() {
	l := x.l
	l.xmit.Unlock(x.p)
	x.p.ReportWait("net", l.name, "", 0, x.tx)
	if x.n > 0 {
		if l.xmit.LockOrQueue(x.p, x.send) {
			x.sendChunk()
		}
		return
	}
	x.propagate()
}

// propagate reads the propagation delay and schedules the event that
// ends it. The delay is captured now: a latency-spike window arming or
// disarming mid-flight would make a re-evaluated report disagree with
// the time actually blocked.
func (x *transfer) propagate() {
	l := x.l
	x.d = l.latency + l.extraLatency
	if x.then == nil {
		l.eng.ScheduleWakeAfter(x.p, x.d)
		return
	}
	l.eng.After(x.d, x.landed)
}

// land ends the transfer once the message has propagated: report the
// wait, count a message of an armed drop window, recycle x and return
// the transfer's error.
func (x *transfer) land() error {
	l, err := x.l, x.err
	x.p.ReportWait("net", l.name, "", 0, x.d)
	l.putTransfer(x)
	if err == nil && l.dropEvery > 0 {
		l.dropCount++
		if l.dropCount%l.dropEvery == 0 {
			return ErrDropped
		}
	}
	return err
}

// arrive is the propagation-end callback of a transfer with a
// continuation.
func (x *transfer) arrive() {
	then := x.then
	then(x.land())
}

// getTransfer takes a transfer from the link's pool. Safe without
// locking: exactly one goroutine runs at any instant in the simulation.
func (l *Link) getTransfer() *transfer {
	if n := len(l.pool); n > 0 {
		x := l.pool[n-1]
		l.pool = l.pool[:n-1]
		return x
	}
	x := &transfer{l: l}
	x.send, x.sent, x.landed = x.sendChunk, x.chunkSent, x.arrive
	return x
}

func (l *Link) putTransfer(x *transfer) {
	x.p, x.then = nil, nil
	l.pool = append(l.pool, x)
}

// Bytes returns total bytes transferred.
func (l *Link) Bytes() uint64 { return l.bytes }

// Messages returns total messages transferred.
func (l *Link) Messages() uint64 { return l.msgs }

// SetExtraLatency arms (or with 0 disarms) a latency spike on the link.
func (l *Link) SetExtraLatency(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.extraLatency = d
}

// SetDropEvery arms deterministic packet loss: every nth message on the
// link is dropped after paying its transmission cost. n = 0 disarms.
func (l *Link) SetDropEvery(n uint64) {
	l.dropEvery = n
	l.dropCount = 0
}

// SetPartitioned arms or disarms a full partition of the link.
func (l *Link) SetPartitioned(v bool) { l.partitioned = v }

// NIC is a duplex interface: independent transmit and receive links.
type NIC struct {
	TX *Link
	RX *Link
}

// NewNIC creates a duplex NIC with symmetric per-direction bandwidth.
func NewNIC(eng *sim.Engine, name string, bytesPerSec int64, latency time.Duration, mtu int64) *NIC {
	return &NIC{
		TX: NewLink(eng, name+".tx", bytesPerSec, latency, mtu),
		RX: NewLink(eng, name+".rx", bytesPerSec, latency/2, mtu),
	}
}

// SetExtraLatency arms a latency spike on both directions of the NIC.
func (n *NIC) SetExtraLatency(d time.Duration) {
	n.TX.SetExtraLatency(d)
	n.RX.SetExtraLatency(d)
}

// SetDropEvery arms deterministic loss on both directions of the NIC.
func (n *NIC) SetDropEvery(every uint64) {
	n.TX.SetDropEvery(every)
	n.RX.SetDropEvery(every)
}

// SetPartitioned partitions or heals both directions of the NIC.
func (n *NIC) SetPartitioned(v bool) {
	n.TX.SetPartitioned(v)
	n.RX.SetPartitioned(v)
}

// Fabric connects the client host to the server VMs. A request path
// crosses the client NIC and the target server's NIC; latency is paid
// once per link.
type Fabric struct {
	Client  *NIC
	Servers []*NIC

	pool []*route // recycled route states
}

// NewFabric builds the testbed network: one client NIC (bonded 20 Gbps
// in the paper) and one NIC per server VM.
func NewFabric(eng *sim.Engine, params *model.Params, servers int) *Fabric {
	f := &Fabric{
		Client: NewNIC(eng, "client-nic", params.ClientNICBytesPerSec, params.NetLatency, params.NetMTU),
	}
	for i := 0; i < servers; i++ {
		f.Servers = append(f.Servers, NewNIC(eng, "server-nic", params.ServerNICBytesPerSec, params.NetLatency, params.NetMTU))
	}
	return f
}

// Request moves n bytes from the client to server s (request
// direction). The first failing hop wins: a message lost on the client
// NIC never reaches the server link.
func (f *Fabric) Request(p *sim.Proc, s int, n int64) error {
	return f.twoHops(p, f.Client.TX, f.Servers[s].RX, n)
}

// Reply moves n bytes from server s back to the client.
func (f *Fabric) Reply(p *sim.Proc, s int, n int64) error {
	return f.twoHops(p, f.Servers[s].TX, f.Client.RX, n)
}

// RequestThen is the continuation form of Request: it never parks p, so
// an engine callback acting for a parked p may call it. then runs with
// the message's error in the callback where Request would have resumed
// p: where the second hop's message lands, or where a first hop's error
// ends the route.
func (f *Fabric) RequestThen(p *sim.Proc, s int, n int64, then func(error)) {
	f.route(p, f.Client.TX, f.Servers[s].RX, n, then)
}

// ReplyThen is the continuation form of Reply (see RequestThen).
func (f *Fabric) ReplyThen(p *sim.Proc, s int, n int64, then func(error)) {
	f.route(p, f.Servers[s].TX, f.Client.RX, n, then)
}

// twoHops moves n bytes across first and then second, parking p once:
// the second hop starts in the callback where the first one's
// propagation ends, and a drop or partition there resumes p with its
// error at that event, as the process resuming between two Transfers
// did.
func (f *Fabric) twoHops(p *sim.Proc, first, second *Link, n int64) error {
	r := f.route(p, first, second, n, nil)
	p.Park()
	err := r.err
	f.putRoute(r)
	return err
}

// route starts n bytes across first and then second for p, which stays
// parked. The route ends by calling then or, when then is nil, by
// resuming p, which reads the route's error and recycles it.
func (f *Fabric) route(p *sim.Proc, first, second *Link, n int64, then func(error)) *route {
	r := f.getRoute()
	r.p, r.second, r.n, r.then = p, second, n, then
	first.begin(p, n, r.hop)
	return r
}

// route carries one message across two links while its process stays
// parked.
type route struct {
	f      *Fabric
	p      *sim.Proc
	second *Link // the link of the second hop; nil once on it
	n      int64
	err    error
	then   func(error) // the route's continuation; nil resumes the process

	hop func(error) // reusable hop-end continuation (landed)
}

// landed runs where a hop's message lands: after the first, send on the
// second; after the second, or on the first's error, end the route.
func (r *route) landed(err error) {
	if l := r.second; err == nil && l != nil {
		r.second = nil
		l.begin(r.p, r.n, r.hop)
		return
	}
	if then := r.then; then != nil {
		r.f.putRoute(r)
		then(err)
		return
	}
	r.err = err
	r.p.ResumeHere()
}

// getRoute takes a route from the fabric's pool. Safe without locking:
// exactly one goroutine runs at any instant in the simulation.
func (f *Fabric) getRoute() *route {
	if n := len(f.pool); n > 0 {
		r := f.pool[n-1]
		f.pool = f.pool[:n-1]
		return r
	}
	r := &route{f: f}
	r.hop = r.landed
	return r
}

func (f *Fabric) putRoute(r *route) {
	r.p, r.second, r.err, r.then = nil, nil, nil, nil
	f.pool = append(f.pool, r)
}
