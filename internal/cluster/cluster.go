// Package cluster models the storage backend of the testbed: a Ceph-like
// cluster of object storage devices (OSDs) holding 4 MB file objects on
// ramdisks, and a metadata server (MDS) owning the filesystem namespace.
// Clients reach the cluster through the simulated network fabric; OSD
// media and MDS processing serialize per server, so the backend exhibits
// realistic saturation under scaleout load.
package cluster

import (
	"errors"
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
		d = time.Duration(float64(d) * o.degraded)
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
// and image preparation; simulated clients use the Meta* calls).
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

func (c *Cluster) mdsRPC(ctx vfsapi.Ctx, extraReply int64, op func() error) error {
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
	rerr := c.fabric.Reply(ctx.P, c.mdsServer(), metaRepBytes+extraReply)
	nsc.Exit()
	if rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// MetaLookup resolves path at the MDS, returning a snapshot of the node.
func (c *Cluster) MetaLookup(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, uint64, error) {
	var info vfsapi.FileInfo
	var ino uint64
	err := c.mdsRPC(ctx, 0, func() error {
		n, err := c.mds.tree.Lookup(path)
		if err != nil {
			return err
		}
		info = n.Info()
		ino = n.Ino
		return nil
	})
	return info, ino, err
}

// MetaCreate creates a file at the MDS.
func (c *Cluster) MetaCreate(ctx vfsapi.Ctx, path string) (uint64, error) {
	var ino uint64
	err := c.mdsRPC(ctx, 0, func() error {
		n, err := c.mds.tree.Create(path, c.eng.Now())
		if err != nil {
			return err
		}
		ino = n.Ino
		return nil
	})
	return ino, err
}

// MetaMkdir creates a directory at the MDS.
func (c *Cluster) MetaMkdir(ctx vfsapi.Ctx, path string) error {
	return c.mdsRPC(ctx, 0, func() error {
		_, err := c.mds.tree.Mkdir(path, c.eng.Now())
		return err
	})
}

// MetaReaddir lists a directory at the MDS.
func (c *Cluster) MetaReaddir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	var ents []vfsapi.DirEntry
	// Listing cost scales with the directory size; fetch the entries
	// first so the reply transfer can be sized.
	err := c.mdsRPC(ctx, 0, func() error {
		var err error
		ents, err = c.mds.tree.Readdir(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	if n := int64(len(ents)) * dirEntryBytes; n > 0 {
		if err := c.fabric.Reply(ctx.P, c.mdsServer(), n); err != nil {
			return nil, err
		}
	}
	return ents, nil
}

// MetaUnlink removes a file at the MDS.
func (c *Cluster) MetaUnlink(ctx vfsapi.Ctx, path string) error {
	return c.mdsRPC(ctx, 0, func() error {
		_, err := c.mds.tree.Unlink(path)
		return err
	})
}

// MetaRmdir removes a directory at the MDS.
func (c *Cluster) MetaRmdir(ctx vfsapi.Ctx, path string) error {
	return c.mdsRPC(ctx, 0, func() error {
		return c.mds.tree.Rmdir(path)
	})
}

// MetaRename renames at the MDS.
func (c *Cluster) MetaRename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	return c.mdsRPC(ctx, 0, func() error {
		return c.mds.tree.Rename(oldPath, newPath, c.eng.Now())
	})
}

// MetaSetSize updates the authoritative size of path (sent by clients
// when flushing dirty data or closing a written file).
func (c *Cluster) MetaSetSize(ctx vfsapi.Ctx, path string, size int64) error {
	return c.mdsRPC(ctx, 0, func() error {
		n, err := c.mds.tree.Lookup(path)
		if err != nil {
			return err
		}
		if size > n.Size {
			n.Size = size
		}
		n.MTime = c.eng.Now()
		return nil
	})
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
	return c.eachObject(off, n, func(objIdx, objOff, seg int64) error {
		return c.readObject(ctx, ino, objIdx, objOff, seg, -1)
	})
}

// ReadReplica is Read with the serving OSD pinned to replication-group
// member `replica` (0 = primary). Clients cycle through members here
// when the routed read fails.
func (c *Cluster) ReadReplica(ctx vfsapi.Ctx, ino uint64, off, n int64, replica int) error {
	return c.eachObject(off, n, func(objIdx, objOff, seg int64) error {
		return c.readObject(ctx, ino, objIdx, objOff, seg, replica%c.replication)
	})
}

// readObject serves one object read from group member pin, or from the
// least-degraded member when pin is negative. Down members are not
// excluded from routing — liveness is discovered the hard way, via
// ErrOSDDown, as with a real OSD map lagging a crash.
func (c *Cluster) readObject(ctx vfsapi.Ctx, ino uint64, objIdx, objOff, seg int64, pin int) error {
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
	err = c.osds[ms].read(ctx.P, objectID{ino, objIdx}, objOff, seg)
	osc.Exit()
	if err != nil {
		return err
	}
	nsc = ctx.Span.Enter(obs.LayerNet)
	err = c.fabric.Reply(ctx.P, ms, dataRepBytes+seg)
	nsc.Exit()
	return err
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

func (o *OSD) read(p *sim.Proc, id objectID, off, n int64) error {
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
		// Crashed mid-service: the reply was never sent.
		o.media.Unlock(p)
		return ErrOSDDown
	}
	o.bytesRead += uint64(n)
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
