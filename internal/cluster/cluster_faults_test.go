package cluster

import (
	"errors"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// TestReplicaFanoutIdentical drives a mixed write/truncate/write
// sequence at replication 3 and asserts every member of each object's
// replication group holds byte-identical state.
func TestReplicaFanoutIdentical(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	c.SetReplication(3)
	var ino uint64
	e.Go("writer", func(p *sim.Proc) {
		ctx := mkCtx(p)
		var err error
		ino, err = create(ctx, c, "/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := c.Write(ctx, ino, 0, 10<<20); err != nil {
			t.Errorf("write: %v", err)
		}
		c.TruncateObjects(ino, 5<<20)
		if err := c.Write(ctx, ino, 5<<20, 1<<20); err != nil {
			t.Errorf("extend: %v", err)
		}
	})
	e.Run()

	objSize := c.params.ObjectSize
	seen := 0
	for idx := int64(0); idx*objSize < 6<<20; idx++ {
		id := objectID{ino: ino, idx: idx}
		s := c.PlacementOf(ino, idx)
		end0, ok := c.osds[s].objects[id]
		if !ok {
			t.Fatalf("object %d missing on its primary osd %d", idx, s)
		}
		seen++
		for r := 1; r < 3; r++ {
			m := (s + r) % len(c.osds)
			end, ok := c.osds[m].objects[id]
			if !ok || end != end0 {
				t.Fatalf("object %d: member %d holds end=%d (present=%v), primary holds %d",
					idx, m, end, ok, end0)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("file spans %d objects after truncate to 5MB + extend to 6MB, want 2", seen)
	}
	// The truncated third object must be gone everywhere.
	id2 := objectID{ino: ino, idx: 2}
	for i, o := range c.osds {
		if _, ok := o.objects[id2]; ok {
			t.Fatalf("osd %d still holds the truncated object", i)
		}
	}
	if got := c.StoredSize(ino); got != 6<<20 {
		t.Fatalf("StoredSize = %d, want %d", got, 6<<20)
	}
}

// txBytes sums the server->client traffic of one OSD's NIC.
func txBytes(c *Cluster, osd int) uint64 {
	return c.fabric.Servers[osd].TX.Bytes()
}

// TestReadRoutesToLeastDegradedMember: with a degraded primary the
// replicated read must be served by the healthy replica, and return to
// the primary once it recovers (ties prefer the primary).
func TestReadRoutesToLeastDegradedMember(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	c.SetReplication(2)
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, err := create(ctx, c, "/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := c.Write(ctx, ino, 0, 1<<20); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		primary := c.PlacementOf(ino, 0)
		replica := (primary + 1) % len(c.osds)

		c.osds[primary].SetDegraded(8)
		p0, r0 := txBytes(c, primary), txBytes(c, replica)
		if err := c.Read(ctx, ino, 0, 1<<20); err != nil {
			t.Errorf("degraded read: %v", err)
		}
		if d := txBytes(c, replica) - r0; d < 1<<20 {
			t.Errorf("replica served %d bytes during primary degradation, want >= 1MB", d)
		}
		if d := txBytes(c, primary) - p0; d >= 1<<20 {
			t.Errorf("degraded primary still served %d data bytes", d)
		}

		c.osds[primary].SetDegraded(1)
		p1 := txBytes(c, primary)
		if err := c.Read(ctx, ino, 0, 1<<20); err != nil {
			t.Errorf("healthy read: %v", err)
		}
		if d := txBytes(c, primary) - p1; d < 1<<20 {
			t.Errorf("healthy primary served %d bytes, want >= 1MB (ties prefer primary)", d)
		}
	})
	e.Run()
}

// TestCrashRestartBackfillRecovery: writes against a group with a down
// member succeed through the acting member, the miss is logged for
// backfill, and a restart replays it so the primary serves reads again
// with no data loss.
func TestCrashRestartBackfillRecovery(t *testing.T) {
	e, c, mkCtx := newTestCluster(t)
	c.SetReplication(2)
	e.Go("client", func(p *sim.Proc) {
		ctx := mkCtx(p)
		ino, err := create(ctx, c, "/f")
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		if err := c.Write(ctx, ino, 0, 1<<20); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		primary := c.PlacementOf(ino, 0)
		c.osds[primary].Crash()

		// The acting primary is down: the plain write fails fast.
		if err := c.Write(ctx, ino, 0, 2<<20); !errors.Is(err, ErrOSDDown) {
			t.Errorf("write to down primary: err=%v, want ErrOSDDown", err)
		}
		// Advancing the acting member persists through the replica.
		if err := c.WriteReplica(ctx, ino, 0, 2<<20, 1); err != nil {
			t.Errorf("write via replica: %v", err)
		}
		if got := c.StoredSize(ino); got != 2<<20 {
			t.Errorf("StoredSize = %d during outage, want %d", got, 2<<20)
		}
		// Auto-routed reads tie-break to the down primary and surface the
		// fault; pinning the replica works.
		if err := c.Read(ctx, ino, 0, 2<<20); !errors.Is(err, ErrOSDDown) {
			t.Errorf("read via down primary: err=%v, want ErrOSDDown", err)
		}
		if err := c.ReadReplica(ctx, ino, 0, 2<<20, 1); err != nil {
			t.Errorf("read via replica: %v", err)
		}

		c.osds[primary].Restart()
		id := objectID{ino: ino, idx: 0}
		if end := c.osds[primary].objects[id]; end != 2<<20 {
			t.Errorf("backfill after restart: primary holds end=%d, want %d", end, 2<<20)
		}
		if err := c.Read(ctx, ino, 0, 2<<20); err != nil {
			t.Errorf("read after restart: %v", err)
		}
		if got := c.StoredSize(ino); got != 2<<20 {
			t.Errorf("StoredSize = %d after restart, want %d", got, 2<<20)
		}
	})
	e.Run()
}

// TestDegradedMediaTimeSaturates checks that a slowdown whose product
// leaves int64 gives the longest media time, not a wrapped one: a
// larger factor must never make the OSD faster.
func TestDegradedMediaTimeSaturates(t *testing.T) {
	o := New(sim.NewEngine(), model.Default(), 1).osds[0]
	prev := o.mediaTime(1 << 20)
	for _, f := range []float64{2, 1e6, 1e12, 1e18, 1e300, math.MaxFloat64} {
		o.SetDegraded(f)
		got := o.mediaTime(1 << 20)
		if got < prev {
			t.Fatalf("factor %g: media time %v, below %v at a smaller factor", f, got, prev)
		}
		prev = got
	}
	if prev != math.MaxInt64 {
		t.Fatalf("media time %v at the largest factor, want the int64 maximum", prev)
	}
}
