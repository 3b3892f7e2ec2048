package cluster

import (
	"fmt"

	"repro/internal/vfsapi"
)

// MDS session registry (a simplified form of the CephFS/CFS client
// session protocol): every client-side filesystem service registers a
// named session when it mounts, and a restarted client must reclaim its
// session before serving traffic. Reclaim is the fencing: the MDS drops
// every capability the dead incarnation still held, so a zombie cannot
// block cap acquisition or resurrect pre-crash dirty state, and issues
// a new session epoch. The MDS does not check epochs on operations;
// a crashed client issues none, since every operation on it fails until
// it restarts (cephclient's TestCrashedClientRejectsOps).

type mdsSession struct {
	epoch  uint64
	holder CapHolder
}

// OpenSession registers (or re-registers) a client session under name
// and returns its epoch. The holder — which may be nil for clients that
// never take capabilities — is the CapHolder the MDS will fence if the
// session dies. Opening an existing live session is idempotent.
func (c *Cluster) OpenSession(name string, holder CapHolder) uint64 {
	if c.sessions == nil {
		c.sessions = map[string]*mdsSession{}
	}
	s := c.sessions[name]
	if s == nil {
		s = &mdsSession{epoch: 1, holder: holder}
		c.sessions[name] = s
		return s.epoch
	}
	s.holder = holder
	return s.epoch
}

// ReclaimSession is the recovery-protocol step a restarted client runs
// before serving traffic: one metadata round trip that fences the stale
// incarnation (dropping every capability its holder still had) and
// issues a fresh epoch. It returns the new epoch. Reclaiming a session
// that was never opened is an error — the restarted client must be the
// same mount the MDS knew.
func (c *Cluster) ReclaimSession(ctx vfsapi.Ctx, name string) (uint64, error) {
	s := c.sessions[name]
	if s == nil {
		return 0, fmt.Errorf("cluster: reclaim of unknown session %q", name)
	}
	if _, err := c.Meta(ctx, MetaQuery{}); err != nil {
		return 0, err
	}
	if s.holder != nil {
		c.fenceHolder(s.holder)
	}
	s.epoch++
	c.mds.sessionsReclaimed++
	return s.epoch, nil
}

// SessionsReclaimed counts completed session reclaims (recovery
// protocol runs) since the cluster was built.
func (c *Cluster) SessionsReclaimed() uint64 { return c.mds.sessionsReclaimed }

// SessionCount returns how many sessions are registered. Clients
// without a natural name (the kernel Ceph stores) use it to mint a
// deterministic unique session name at construction.
func (c *Cluster) SessionCount() int { return len(c.sessions) }

// fenceHolder drops every capability the holder has on any inode and
// returns how many entries were fenced. Unlike ReleaseCaps it needs no
// cooperation from the (dead) client.
func (c *Cluster) fenceHolder(holder CapHolder) int {
	fenced := 0
	for ino, entries := range c.caps {
		kept := entries[:0]
		for _, e := range entries {
			if e.holder == holder {
				fenced++
				continue
			}
			kept = append(kept, e)
		}
		if len(kept) == 0 {
			delete(c.caps, ino)
		} else {
			c.caps[ino] = kept
		}
	}
	return fenced
}
