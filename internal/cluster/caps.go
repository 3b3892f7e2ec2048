package cluster

import (
	"repro/internal/vfsapi"
)

// Capability management (a simplified form of Ceph's caps protocol):
// the MDS tracks which clients hold read or write capabilities on each
// inode. A client acquiring a capability that conflicts with another
// client's holdings triggers a synchronous revocation: the holder
// flushes its dirty state and drops its cache before the acquisition
// completes. This is the §3.4 mechanism that propagates writes between
// backend clients of the same file.

// CapKind is the strength of a capability.
type CapKind int

// Capability kinds.
const (
	// CapRead allows caching file data for reads.
	CapRead CapKind = iota
	// CapWrite allows buffering dirty data for the file.
	CapWrite
)

// CapHolder is a client that can be asked to give up its capabilities
// on an inode (flushing dirty state and dropping its cache).
type CapHolder interface {
	RevokeCaps(ctx vfsapi.Ctx, ino uint64)
}

type capEntry struct {
	holder CapHolder
	kind   CapKind
}

// AcquireCaps grants the holder a capability on ino, synchronously
// revoking conflicting capabilities from other holders first. Two read
// capabilities coexist; a write capability is exclusive against every
// other holder. The revocation work runs on the acquiring caller (it
// blocks until the previous holder's state is safe on the backend).
// It reports whether any revocation happened, so the acquirer knows to
// refresh metadata it may have read before the flush.
func (c *Cluster) AcquireCaps(ctx vfsapi.Ctx, ino uint64, kind CapKind, holder CapHolder) bool {
	if c.caps == nil {
		c.caps = map[uint64][]capEntry{}
	}
	revoked := false
	entries := c.caps[ino]
	kept := entries[:0]
	for _, e := range entries {
		if e.holder == holder {
			continue // re-granted below, possibly upgraded
		}
		conflict := kind == CapWrite || e.kind == CapWrite
		if conflict {
			// One metadata round trip to deliver the revoke, then the
			// holder's writeback.
			c.Meta(ctx, MetaQuery{})
			e.holder.RevokeCaps(ctx, ino)
			revoked = true
			continue
		}
		kept = append(kept, e)
	}
	c.caps[ino] = append(kept, capEntry{holder: holder, kind: kind})
	return revoked
}

// TryAcquireCaps grants the holder a capability on ino, as AcquireCaps
// does, when no other holder's capability conflicts with it, and
// reports whether it did; on a conflict it changes nothing.
func (c *Cluster) TryAcquireCaps(ino uint64, kind CapKind, holder CapHolder) bool {
	for _, e := range c.caps[ino] {
		if e.holder != holder && (kind == CapWrite || e.kind == CapWrite) {
			return false
		}
	}
	c.AcquireCaps(vfsapi.Ctx{}, ino, kind, holder) // no conflict: no round trip
	return true
}

// ReleaseCaps drops every capability the holder has on ino.
func (c *Cluster) ReleaseCaps(ino uint64, holder CapHolder) {
	entries := c.caps[ino]
	kept := entries[:0]
	for _, e := range entries {
		if e.holder != holder {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		delete(c.caps, ino)
		return
	}
	c.caps[ino] = kept
}
