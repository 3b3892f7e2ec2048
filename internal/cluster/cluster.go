// Package cluster models the storage backend of the testbed: a Ceph-like
// cluster of object storage devices (OSDs) holding 4 MB file objects on
// ramdisks, and a metadata server (MDS) owning the filesystem namespace.
// Clients reach the cluster through the simulated network fabric; OSD
// media and MDS processing serialize per server, so the backend exhibits
// realistic saturation under scaleout load.
package cluster

import (
	"errors"
	"math"
	"time"

	"repro/internal/model"
	"repro/internal/netsim"
	"repro/internal/nstree"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// ErrOSDDown is returned by data operations that reach a crashed OSD.
// Clients recover by retrying against another replica (see Retrier).
var ErrOSDDown = errors.New("cluster: osd down")

// Cluster is the storage backend: one MDS plus a set of OSDs.
type Cluster struct {
	eng    *sim.Engine
	params *model.Params
	fabric *netsim.Fabric

	osds     []*OSD
	mds      *MDS
	caps     map[uint64][]capEntry
	sessions map[string]*mdsSession
	metaRuns []*MetaRun // recycled metadata runs
	readRuns []*ReadRun // recycled object-read runs

	// replication is the number of OSD copies per object (Ceph pool
	// "size"). The default of 1 matches the paper's ramdisk evaluation
	// cluster; raising it makes every object write also update the
	// replicas on the next OSDs of the ring.
	replication int
}

// OSD is one object storage device backed by a ramdisk.
type OSD struct {
	index  int
	media  *sim.Mutex
	params *model.Params

	objects      map[objectID]int64 // allocated bytes per object
	bytesRead    uint64
	bytesWritten uint64
	ops          uint64

	// degraded multiplies media service time (fault injection: a
	// recovering or overloaded OSD slows every placement group it
	// hosts, but the data path stays correct).
	degraded float64

	// down marks a crashed OSD: every data operation reaching it fails
	// with ErrOSDDown until Restart. Writes that the replication group
	// accepts while a member is down are logged in backfill and applied
	// on restart, so a rejoining OSD recovers the writes it missed.
	down     bool
	backfill map[objectID]int64
}

// SetDegraded slows the OSD's media by the given factor (1 = healthy).
func (o *OSD) SetDegraded(factor float64) {
	if factor < 1 {
		factor = 1
	}
	o.degraded = factor
}

// Degraded returns the current media slowdown factor (<=1 = healthy).
func (o *OSD) Degraded() float64 {
	if o.degraded < 1 {
		return 1
	}
	return o.degraded
}

// Crash marks the OSD down: in-flight and future operations against it
// fail with ErrOSDDown until Restart.
func (o *OSD) Crash() { o.down = true }

// Restart brings a crashed OSD back, applying the backfill log of
// writes its replication groups accepted while it was down — the
// recovering member rejoins with no data loss.
func (o *OSD) Restart() {
	o.down = false
	for id, end := range o.backfill {
		if end > o.objects[id] {
			o.objects[id] = end
		}
	}
	o.backfill = map[objectID]int64{}
}

// Down reports whether the OSD is crashed.
func (o *OSD) Down() bool { return o.down }

// noteBackfill logs a write a down/unreachable member missed.
func (o *OSD) noteBackfill(id objectID, end int64) {
	if end > o.backfill[id] {
		o.backfill[id] = end
	}
}

func (o *OSD) mediaTime(n int64) time.Duration {
	d := model.RateTime(n, o.params.OSDRamdiskBytesPerSec)
	if o.degraded > 1 {
		// Saturate: a product past int64 would wrap negative.
		if f := float64(d) * o.degraded; f < math.MaxInt64 {
			d = time.Duration(f)
		} else {
			d = math.MaxInt64
		}
	}
	return d
}

type objectID struct {
	ino uint64
	idx int64
}

// MDS is the metadata server: it owns the namespace tree and serializes
// metadata processing.
type MDS struct {
	cpu    *sim.Mutex
	params *model.Params
	tree   *nstree.Tree
	ops    uint64

	// sessionsReclaimed counts recovery-protocol session reclaims (see
	// sessions.go).
	sessionsReclaimed uint64

	// stalled freezes metadata processing (fault injection: an MDS
	// failover or journal replay window). Requests queue on stallQ and
	// proceed when the stall clears.
	stalled bool
	stallQ  *sim.WaitQueue
}

// New builds a cluster of nOSD object servers and one MDS, wired to the
// last server slots of a fresh fabric (servers 0..nOSD-1 are OSDs,
// server nOSD is the MDS).
func New(eng *sim.Engine, params *model.Params, nOSD int) *Cluster {
	c := &Cluster{
		eng:    eng,
		params: params,
		fabric: netsim.NewFabric(eng, params, nOSD+1),
	}
	for i := 0; i < nOSD; i++ {
		c.osds = append(c.osds, &OSD{
			index:    i,
			media:    sim.NewMutex(eng, "osd.media"),
			params:   params,
			objects:  map[objectID]int64{},
			backfill: map[objectID]int64{},
		})
	}
	c.mds = &MDS{
		cpu:    sim.NewMutex(eng, "mds.cpu"),
		params: params,
		tree:   nstree.New(),
		stallQ: sim.NewWaitQueue(eng, "mds.stall"),
	}
	c.replication = 1
	return c
}

// SetReplication sets the number of copies kept per object (>= 1).
// Writes fan out to the primary and its ring successors; reads are
// served by the least-degraded member of the group.
func (c *Cluster) SetReplication(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(c.osds) {
		n = len(c.osds)
	}
	c.replication = n
}

// Replication returns the configured copy count.
func (c *Cluster) Replication() int { return c.replication }

// Fabric exposes the network for contention inspection in tests.
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// OSDs returns the object servers.
func (c *Cluster) OSDs() []*OSD { return c.osds }

// Tree returns the authoritative namespace (for zero-cost test setup
// and image preparation; simulated clients use Meta).
func (c *Cluster) Tree() *nstree.Tree { return c.mds.tree }

// mdsServer is the fabric index of the MDS.
func (c *Cluster) mdsServer() int { return len(c.osds) }

// placement maps an object to its OSD deterministically (a stand-in for
// CRUSH).
func (c *Cluster) placement(ino uint64, objIdx int64) int {
	h := ino*2654435761 + uint64(objIdx)*0x9E3779B97F4A7C15
	return int(h % uint64(len(c.osds)))
}

// PlacementOf exposes the primary OSD of an object; experiments use it
// to aim fault windows at the OSD serving a known file.
func (c *Cluster) PlacementOf(ino uint64, objIdx int64) int {
	return c.placement(ino, objIdx)
}

// SetMDSStalled freezes or unfreezes metadata processing (fault
// injection: an MDS failover / journal replay window). While stalled,
// metadata requests queue at the server and complete when the stall
// clears; pair every stall with an unstall or queued clients park
// forever.
func (c *Cluster) SetMDSStalled(v bool) {
	c.mds.stalled = v
	if !v {
		c.mds.stallQ.Broadcast()
	}
}

// MDSStalled reports whether metadata processing is frozen.
func (c *Cluster) MDSStalled() bool { return c.mds.stalled }

const (
	metaReqBytes  = 256
	metaRepBytes  = 256
	dataHdrBytes  = 128
	dataRepBytes  = 64
	dirEntryBytes = 64
)

// --- Metadata operations (request/response with the MDS) ---

// MetaOp names the operation a metadata request carries.
type MetaOp uint8

// The metadata operations. MetaPing carries none: the round trip that
// delivers a capability revoke or reclaims a session.
const (
	MetaPing MetaOp = iota
	MetaLookup
	MetaCreate
	MetaMkdir
	MetaReaddir
	MetaUnlink
	MetaRmdir
	MetaRename
	MetaSetSize
)

// MetaQuery is one metadata request: its operation and arguments.
type MetaQuery struct {
	Op    MetaOp
	Path  string
	Path2 string // MetaRename's destination
	Size  int64  // MetaSetSize's size
}

// MetaReply is what the MDS returns for a served request: the node's
// snapshot and ino of a lookup, the ino of a create, the entries of a
// readdir.
type MetaReply struct {
	Info vfsapi.FileInfo
	Ino  uint64
	Ents []vfsapi.DirEntry
}

// metaAt names where a metadata run stands when its process resumes.
type metaAt uint8

const (
	metaServed  metaAt = iota // over: Finish returns the reply and error
	metaStalled               // the request reached a stalled MDS: wait out the stall, then serve it
)

// MetaRun carries one metadata request to the MDS and back while its
// process stays parked. Its steps run at the events where the
// straight-line round trip resumed the process:
//
//	request hops (net) → stall check, mds.cpu → MDSOpCost → the
//	operation, unlock → reply hops (net)
//
// entering and exiting the mds and net scopes at the same instants. A
// stalled MDS and a hop error hand control back with
// sim.(*Proc).ResumeHere, as does the end of a run with no
// continuation; otherwise the end calls then, which reads the reply
// with Finish. Each step pushes what the process pushed, so a run keeps
// every simulated result; TestMDSRPCMatchesHistoricalLoop checks this
// against the straight-line round trip.
type MetaRun struct {
	c    *Cluster
	p    *sim.Proc
	span *obs.Span
	q    MetaQuery
	rep  MetaReply
	err  error
	at   metaAt
	then func() // the run's continuation; nil resumes the process

	mds, net obs.Scope // the request's mds and net crossings

	// Reusable continuations, bound once per pooled run.
	sent, replied func(error)
	granted       func()
	served        func()
}

// StartMeta begins q at the MDS as a run for ctx.P, which is parked
// with no pending wake or about to park (see MetaRun). Once the reply
// has landed the run calls then, in a callback, or with a nil then
// resumes ctx.P; a stall or a hop error resumes ctx.P without calling
// then. Either way Finish returns the reply.
func (c *Cluster) StartMeta(ctx vfsapi.Ctx, q MetaQuery, then func()) *MetaRun {
	var r *MetaRun
	if n := len(c.metaRuns); n > 0 {
		r = c.metaRuns[n-1]
		c.metaRuns = c.metaRuns[:n-1]
	} else {
		r = &MetaRun{c: c}
		r.sent, r.granted, r.served, r.replied = r.afterRequest, r.serve, r.afterOp, r.afterReply
	}
	r.p, r.span, r.q, r.then, r.at = ctx.P, ctx.Span, q, then, metaServed
	r.mds = r.span.Enter(obs.LayerMDS)
	r.net = r.span.Enter(obs.LayerNet)
	c.fabric.RequestThen(r.p, c.mdsServer(), metaReqBytes, r.sent)
	return r
}

// Finish returns the request's reply and error, and recycles the run.
// In a process the run handed control back to, it first waits out a
// stall and serves the request, parking again.
func (r *MetaRun) Finish() (MetaReply, error) {
	c := r.c
	r.then = nil // from here the process waits for the request's end
	if r.at == metaStalled {
		for c.mds.stalled {
			c.mds.stallQ.Wait(r.p)
		}
		r.lock()
		r.p.Park()
	}
	rep, err := r.rep, r.err
	r.p, r.span, r.q, r.rep, r.err = nil, nil, MetaQuery{}, MetaReply{}, nil
	c.metaRuns = append(c.metaRuns, r)
	return rep, err
}

// handBack ends the run at at with err and resumes the process.
func (r *MetaRun) handBack(at metaAt, err error) {
	r.at, r.err = at, err
	r.p.ResumeHere()
}

// afterRequest runs where the request lands at the MDS.
func (r *MetaRun) afterRequest(err error) {
	r.net.Exit()
	if err != nil {
		r.mds.Exit()
		r.handBack(metaServed, err)
		return
	}
	if r.c.mds.stalled {
		r.handBack(metaStalled, nil)
		return
	}
	r.lock()
}

// lock queues for the MDS's processing.
func (r *MetaRun) lock() {
	if r.c.mds.cpu.LockOrQueue(r.p, r.granted) {
		r.serve()
	}
}

// serve charges the MDS's processing time once it holds mds.cpu.
func (r *MetaRun) serve() { r.c.eng.After(r.c.params.MDSOpCost, r.served) }

// afterOp applies the operation to the namespace, releases mds.cpu and
// sends the reply.
func (r *MetaRun) afterOp() {
	c := r.c
	r.p.ReportWait("mds", "mds.cpu", "", 0, c.params.MDSOpCost)
	c.mds.ops++
	r.err = c.apply(&r.q, &r.rep)
	c.mds.cpu.Unlock(r.p)
	r.net = r.span.Enter(obs.LayerNet)
	c.fabric.ReplyThen(r.p, c.mdsServer(), metaRepBytes, r.replied)
}

// afterReply ends the run where the reply lands at the client.
func (r *MetaRun) afterReply(err error) {
	r.net.Exit()
	r.mds.Exit()
	if err != nil {
		if r.err == nil {
			r.err = err
		}
		r.handBack(metaServed, r.err)
		return
	}
	r.at = metaServed
	if then := r.then; then != nil {
		then()
		return
	}
	r.p.ResumeHere()
}

// apply runs q against the namespace, filling rep.
func (c *Cluster) apply(q *MetaQuery, rep *MetaReply) error {
	t := c.mds.tree
	switch q.Op {
	case MetaLookup:
		n, err := t.Lookup(q.Path)
		if err != nil {
			return err
		}
		rep.Info, rep.Ino = n.Info(), n.Ino
	case MetaCreate:
		n, err := t.Create(q.Path, c.eng.Now())
		if err != nil {
			return err
		}
		rep.Ino = n.Ino
	case MetaMkdir:
		_, err := t.Mkdir(q.Path, c.eng.Now())
		return err
	case MetaReaddir:
		ents, err := t.Readdir(q.Path)
		rep.Ents = ents
		return err
	case MetaUnlink:
		_, err := t.Unlink(q.Path)
		return err
	case MetaRmdir:
		return t.Rmdir(q.Path)
	case MetaRename:
		return t.Rename(q.Path, q.Path2, c.eng.Now())
	case MetaSetSize:
		n, err := t.Lookup(q.Path)
		if err != nil {
			return err
		}
		if q.Size > n.Size {
			n.Size = q.Size
		}
		n.MTime = c.eng.Now()
	}
	return nil
}

// Meta is one metadata round trip in its process: the run, then its
// reply. A readdir's listing cost scales with the directory size: the
// entries follow the reply in a transfer of their own, sized once the
// MDS has fetched them. A failed request returns no reply.
func (c *Cluster) Meta(ctx vfsapi.Ctx, q MetaQuery) (MetaReply, error) {
	r := c.StartMeta(ctx, q, nil)
	ctx.P.Park()
	rep, err := r.Finish()
	if n := int64(len(rep.Ents)) * dirEntryBytes; err == nil && n > 0 {
		nsc := ctx.Span.Enter(obs.LayerNet)
		err = c.fabric.Reply(ctx.P, c.mdsServer(), n)
		nsc.Exit()
	}
	if err != nil {
		return MetaReply{}, err
	}
	return rep, nil
}

// --- Data operations (request/response with an OSD) ---

// Write stores [off, off+n) of the file identified by ino, splitting
// the range across 4 MB objects placed on the OSDs. The write is
// acknowledged after the primary and every reachable replica have it
// (the replicas are updated by the primary over the server network).
// It blocks the caller for the full round trips.
func (c *Cluster) Write(ctx vfsapi.Ctx, ino uint64, off, n int64) error {
	return c.WriteReplica(ctx, ino, off, n, 0)
}

// WriteReplica is Write with the acting primary pinned to replication-
// group member `acting` (0 = the placement primary). Clients retry a
// failed write here with the next member acting as primary. Group
// members that are down or unreachable miss the write but have it
// logged for backfill, so they recover it on restart; the write still
// fails if the acting primary itself cannot take it.
func (c *Cluster) WriteReplica(ctx vfsapi.Ctx, ino uint64, off, n int64, acting int) error {
	return c.eachObject(off, n, func(objIdx, objOff, seg int64) error {
		s := c.placement(ino, objIdx)
		a := acting % c.replication
		as := (s + a) % len(c.osds)
		id := objectID{ino, objIdx}
		nsc := ctx.Span.Enter(obs.LayerNet)
		err := c.fabric.Request(ctx.P, as, dataHdrBytes+seg)
		nsc.Exit()
		if err != nil {
			return err
		}
		osc := ctx.Span.Enter(obs.LayerOSD)
		err = c.osds[as].write(ctx.P, id, objOff, seg)
		osc.Exit()
		if err != nil {
			return err
		}
		for r := 0; r < c.replication; r++ {
			if r == a {
				continue
			}
			rs := (s + r) % len(c.osds)
			osd := c.osds[rs]
			if osd.down {
				osd.noteBackfill(id, objOff+seg)
				continue
			}
			// Acting primary forwards to the member: member-side network
			// in plus its media write. A member that became unreachable
			// or crashed mid-write is backfilled later instead of
			// failing the op.
			nsc = ctx.Span.Enter(obs.LayerNet)
			err = c.fabric.Servers[rs].RX.Transfer(ctx.P, seg)
			nsc.Exit()
			if err != nil {
				osd.noteBackfill(id, objOff+seg)
				continue
			}
			osc = ctx.Span.Enter(obs.LayerOSD)
			err = osd.write(ctx.P, id, objOff, seg)
			osc.Exit()
			if err != nil {
				osd.noteBackfill(id, objOff+seg)
			}
		}
		nsc = ctx.Span.Enter(obs.LayerNet)
		err = c.fabric.Reply(ctx.P, as, dataRepBytes)
		nsc.Exit()
		return err
	})
}

// Read fetches [off, off+n) of ino. Each object is served by the
// least-degraded member of its replication group (ties prefer the
// primary), so a slow recovering OSD does not throttle reads that have
// a healthy copy elsewhere.
func (c *Cluster) Read(ctx vfsapi.Ctx, ino uint64, off, n int64) error {
	return c.read(ctx, ino, off, n, -1)
}

// ReadReplica is Read with the serving OSD pinned to replication-group
// member `replica` (0 = primary). Clients cycle through members here
// when the routed read fails.
func (c *Cluster) ReadReplica(ctx vfsapi.Ctx, ino uint64, off, n int64, replica int) error {
	return c.read(ctx, ino, off, n, replica%c.replication)
}

// ReadThen is the continuation form of Read: it never parks ctx.P, so
// an engine callback acting for a parked process may call it. then runs
// with the read's error in the callback where Read would have resumed
// the process: where the last object's reply lands, or where an error
// ends the read.
func (c *Cluster) ReadThen(ctx vfsapi.Ctx, ino uint64, off, n int64, then func(error)) {
	if n <= 0 {
		then(nil)
		return
	}
	c.startRead(ctx, ino, off, n, -1, then)
}

// read is Read or ReadReplica in its process: the run, then its error.
func (c *Cluster) read(ctx vfsapi.Ctx, ino uint64, off, n int64, pin int) error {
	if n <= 0 {
		return nil
	}
	r := c.startRead(ctx, ino, off, n, pin, nil)
	ctx.P.Park()
	err := r.err
	c.putRead(r)
	return err
}

// ReadRun carries an object read — [off, off+n) of a file, object by
// object — while its process stays parked. Its steps run at the events
// where the straight-line read resumed the process:
//
//	per object: request hops (net) → osd.media → OSDOpCost → media
//	time, unlock → reply hops (net)
//
// entering and exiting the net and osd scopes at the same instants. A
// down OSD and a hop error end the run with their error. Each object is
// read from group member pin, or, with pin negative, from the
// least-degraded member, chosen as the object's request starts. Down
// members are not excluded from routing — liveness is discovered the
// hard way, via ErrOSDDown, as with a real OSD map lagging a crash.
// Each step pushes what the process pushed, so a run keeps every
// simulated result; TestReadRunMatchesStraightLine checks this against
// the straight-line read.
type ReadRun struct {
	c    *Cluster
	p    *sim.Proc
	span *obs.Span
	ino  uint64
	off  int64 // the current object's first byte
	n    int64 // the bytes from off to the end of the read
	pin  int
	seg  int64         // the current object's bytes
	osd  int           // the current object's serving OSD
	mt   time.Duration // its media time
	err  error
	then func(error) // the run's continuation; nil resumes the process

	sc obs.Scope // the current net or osd crossing

	// Reusable continuations, bound once per pooled run.
	sent, replied   func(error)
	granted, opDone func()
	mediaDone       func()
}

// startRead begins a read of [off, off+n), n > 0, for ctx.P, which is
// parked with no pending wake or about to park. The run ends by calling
// then, or with a nil then by resuming ctx.P.
func (c *Cluster) startRead(ctx vfsapi.Ctx, ino uint64, off, n int64, pin int, then func(error)) *ReadRun {
	var r *ReadRun
	if k := len(c.readRuns); k > 0 {
		r = c.readRuns[k-1]
		c.readRuns = c.readRuns[:k-1]
	} else {
		r = &ReadRun{c: c}
		r.sent, r.granted, r.opDone, r.mediaDone, r.replied = r.afterRequest, r.serve, r.afterOp, r.afterMedia, r.afterReply
	}
	r.p, r.span, r.ino, r.off, r.n, r.pin, r.then = ctx.P, ctx.Span, ino, off, n, pin, then
	r.object()
	return r
}

func (c *Cluster) putRead(r *ReadRun) {
	r.p, r.span, r.err, r.then = nil, nil, nil, nil
	c.readRuns = append(c.readRuns, r)
}

// object sends the request of the next object's part of the read.
func (r *ReadRun) object() {
	c := r.c
	size := c.params.ObjectSize
	objIdx := r.off / size
	r.seg = min(size-r.off%size, r.n)
	s := c.placement(r.ino, objIdx)
	m := r.pin
	if m < 0 {
		m = 0
		if c.replication > 1 {
			best := c.osds[s].Degraded()
			for i := 1; i < c.replication; i++ {
				if d := c.osds[(s+i)%len(c.osds)].Degraded(); d < best {
					best, m = d, i
				}
			}
		}
	}
	r.osd = (s + m) % len(c.osds)
	r.sc = r.span.Enter(obs.LayerNet)
	c.fabric.RequestThen(r.p, r.osd, dataHdrBytes, r.sent)
}

// afterRequest queues for the OSD's media where the request lands.
func (r *ReadRun) afterRequest(err error) {
	r.sc.Exit()
	if err != nil {
		r.end(err)
		return
	}
	r.sc = r.span.Enter(obs.LayerOSD)
	o := r.c.osds[r.osd]
	if o.down {
		r.osdFailed()
		return
	}
	if o.media.LockOrQueue(r.p, r.granted) {
		r.serve()
	}
}

// serve charges the operation's fixed cost once the read holds the
// media; an OSD that crashed while the request queued fails it.
func (r *ReadRun) serve() {
	o := r.c.osds[r.osd]
	if o.down {
		o.media.Unlock(r.p)
		r.osdFailed()
		return
	}
	r.c.eng.After(o.params.OSDOpCost, r.opDone)
}

// afterOp charges the media time, read as the fixed cost ends.
func (r *ReadRun) afterOp() {
	r.mt = r.c.osds[r.osd].mediaTime(r.seg)
	r.c.eng.After(r.mt, r.mediaDone)
}

// afterMedia releases the media and sends the reply; an OSD that
// crashed mid-service never sends it.
func (r *ReadRun) afterMedia() {
	o := r.c.osds[r.osd]
	r.p.ReportWait("osd", "osd.media", "", 0, o.params.OSDOpCost+r.mt)
	if o.down {
		o.media.Unlock(r.p)
		r.osdFailed()
		return
	}
	o.bytesRead += uint64(r.seg)
	o.ops++
	o.media.Unlock(r.p)
	r.sc.Exit()
	r.sc = r.span.Enter(obs.LayerNet)
	r.c.fabric.ReplyThen(r.p, r.osd, dataRepBytes+r.seg, r.replied)
}

// afterReply goes on to the next object where the reply lands, or ends
// the read.
func (r *ReadRun) afterReply(err error) {
	r.sc.Exit()
	if r.n -= r.seg; err != nil || r.n == 0 {
		r.end(err)
		return
	}
	r.off += r.seg
	r.object()
}

// osdFailed ends the read at a down OSD.
func (r *ReadRun) osdFailed() {
	r.sc.Exit()
	r.end(ErrOSDDown)
}

// end ends the read with err: it calls then or resumes the process.
func (r *ReadRun) end(err error) {
	if then := r.then; then != nil {
		r.c.putRead(r)
		then(err)
		return
	}
	r.err = err
	r.p.ResumeHere()
}

func (c *Cluster) eachObject(off, n int64, fn func(objIdx, objOff, seg int64) error) error {
	size := c.params.ObjectSize
	for n > 0 {
		objIdx := off / size
		objOff := off % size
		seg := size - objOff
		if n < seg {
			seg = n
		}
		if err := fn(objIdx, objOff, seg); err != nil {
			return err
		}
		off += seg
		n -= seg
	}
	return nil
}

func (o *OSD) write(p *sim.Proc, id objectID, off, n int64) error {
	if o.down {
		return ErrOSDDown
	}
	o.media.Lock(p)
	if o.down {
		// Crashed while the request queued on the media.
		o.media.Unlock(p)
		return ErrOSDDown
	}
	p.Sleep(o.params.OSDOpCost)
	// Journal + data: writes cost JournalFactor × media time.
	mediaBytes := int64(float64(n) * o.params.OSDJournalFactor)
	mt := o.mediaTime(mediaBytes)
	p.Sleep(mt)
	p.ReportWait("osd", "osd.media", "", 0, o.params.OSDOpCost+mt)
	if o.down {
		// Crashed mid-service: the write never persisted.
		o.media.Unlock(p)
		return ErrOSDDown
	}
	if end := off + n; end > o.objects[id] {
		o.objects[id] = end
	}
	o.bytesWritten += uint64(n)
	o.ops++
	o.media.Unlock(p)
	return nil
}

// BytesWritten returns total payload bytes stored on this OSD.
func (o *OSD) BytesWritten() uint64 { return o.bytesWritten }

// BytesRead returns total payload bytes served by this OSD.
func (o *OSD) BytesRead() uint64 { return o.bytesRead }

// Ops returns object operations served.
func (o *OSD) Ops() uint64 { return o.ops }

// Objects returns the number of distinct objects stored.
func (o *OSD) Objects() int { return len(o.objects) }

// MDSOps returns metadata operations served by the MDS.
func (c *Cluster) MDSOps() uint64 { return c.mds.ops }

// --- Zero-cost provisioning (experiment setup) ---

// Provision creates path as a file of the given size directly in the
// namespace and allocates its objects, without consuming virtual time.
// Experiments use it to pre-populate container images and datasets.
func (c *Cluster) Provision(path string, size int64) error {
	if err := c.mds.tree.MkdirAll(parentOf(path), 0); err != nil {
		return err
	}
	n, err := c.mds.tree.Create(path, 0)
	if err != nil {
		return err
	}
	n.Size = size
	c.eachObject(0, size, func(objIdx, objOff, seg int64) error {
		id := objectID{n.Ino, objIdx}
		s := c.placement(n.Ino, objIdx)
		for r := 0; r < c.replication; r++ {
			o := c.osds[(s+r)%len(c.osds)]
			if end := objOff + seg; end > o.objects[id] {
				o.objects[id] = end
			}
		}
		return nil
	})
	return nil
}

// TruncateObjects clamps the stored extents of ino's objects to the
// given file size on every replica, without consuming virtual time: in
// Ceph the MDS serves the new size immediately while object trimming
// proceeds asynchronously.
func (c *Cluster) TruncateObjects(ino uint64, size int64) {
	objSize := c.params.ObjectSize
	clamp := func(m map[objectID]int64) {
		for id, end := range m {
			if id.ino != ino {
				continue
			}
			keep := size - id.idx*objSize
			switch {
			case keep <= 0:
				delete(m, id)
			case end > keep:
				m[id] = keep
			}
		}
	}
	for _, o := range c.osds {
		clamp(o.objects)
		clamp(o.backfill)
	}
}

// StoredSize returns the reconstructible size of ino across the
// cluster: for each object, the largest extent held by any OSD (live
// or logged for backfill). Experiments compare it against acknowledged
// writes to assert zero data loss under fault schedules.
func (c *Cluster) StoredSize(ino uint64) int64 {
	objSize := c.params.ObjectSize
	var max int64
	for _, o := range c.osds {
		for id, end := range o.objects {
			if id.ino == ino {
				if v := id.idx*objSize + end; v > max {
					max = v
				}
			}
		}
		for id, end := range o.backfill {
			if id.ino == ino {
				if v := id.idx*objSize + end; v > max {
					max = v
				}
			}
		}
	}
	return max
}

// ProvisionDir creates a directory (and ancestors) without cost.
func (c *Cluster) ProvisionDir(path string) error {
	return c.mds.tree.MkdirAll(path, 0)
}

func parentOf(path string) string {
	parts := nstree.Split(path)
	if len(parts) <= 1 {
		return "/"
	}
	out := ""
	for _, p := range parts[:len(parts)-1] {
		out += "/" + p
	}
	return out
}

// MDSQueueDelay returns the aggregate wait time observed at the MDS
// lock, a proxy for metadata-path saturation.
func (c *Cluster) MDSQueueDelay() time.Duration { return c.mds.cpu.Stats().TotalWait }
