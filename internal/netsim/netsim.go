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
	if l.partitioned {
		// The sender blocks for a timeout instead of a transmission; no
		// bytes are delivered.
		l.propagate(p)
		return ErrPartitioned
	}
	if n < 0 {
		n = 0
	}
	l.msgs++
	l.bytes += uint64(n)
	if n == 0 {
		l.propagate(p)
	} else {
		x := l.getTransfer()
		x.p, x.n = p, n
		if l.xmit.LockOrQueue(p, x.send) {
			x.sendChunk()
		}
		p.Park()
		d := x.d
		l.putTransfer(x)
		p.ReportWait("net", l.name, "", 0, d)
	}
	if l.dropEvery > 0 {
		l.dropCount++
		if l.dropCount%l.dropEvery == 0 {
			return ErrDropped
		}
	}
	return nil
}

// propagate blocks p for the link's one-way latency. The delay is
// captured before sleeping: a latency-spike window arming or disarming
// mid-sleep would make a re-evaluated report disagree with the time
// actually blocked.
func (l *Link) propagate(p *sim.Proc) {
	d := l.latency + l.extraLatency
	p.Sleep(d)
	p.ReportWait("net", l.name, "", 0, d)
}

// transfer drives the chunks of one Transfer while its process stays
// parked. It is event-for-event identical to the historical loop, which
// per chunk took the xmit lock (parking until a handoff while it was
// held), slept the chunk's transmission time, released the lock and
// reported the net wait, and after the last chunk slept the propagation
// delay: where that loop pushed one engine event — the handoff wake, a
// chunk's sleep wake, the final sleep's wake — the transfer pushes one
// event of the same timestamp at the same position in engine seq order.
// Only the first two became callbacks (send, sent), so the interleaving
// of simultaneous events and every virtual-time result stay bit for bit
// the same. TestTransferMatchesHistoricalLoop checks this against that
// loop.
type transfer struct {
	l  *Link
	p  *sim.Proc
	n  int64         // bytes not yet on the wire
	tx time.Duration // transmission time of the chunk on the wire
	d  time.Duration // propagation delay after the last chunk

	send func() // reusable xmit-grant callback (sendChunk)
	sent func() // reusable chunk-end callback (chunkSent)
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
// read the propagation delay and schedule the wake that ends it.
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
	x.d = l.latency + l.extraLatency
	l.eng.ScheduleWakeAfter(x.p, x.d)
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
	x.send, x.sent = x.sendChunk, x.chunkSent
	return x
}

func (l *Link) putTransfer(x *transfer) {
	x.p = nil
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
	if err := f.Client.TX.Transfer(p, n); err != nil {
		return err
	}
	return f.Servers[s].RX.Transfer(p, n)
}

// Reply moves n bytes from server s back to the client.
func (f *Fabric) Reply(p *sim.Proc, s int, n int64) error {
	if err := f.Servers[s].TX.Transfer(p, n); err != nil {
		return err
	}
	return f.Client.RX.Transfer(p, n)
}
