package core

import (
	"repro/internal/cluster"
	"repro/internal/vfsapi"
)

// OverloadPolicy enables client-side overload protection for every
// pool of the testbed: a bounded per-tenant admission queue at the
// mount facade, a circuit breaker in each user-level Ceph client, and
// kernel brownout coupling (queues past high water or an open breaker
// tighten dirty thresholds and defer readahead). Nil — the default —
// keeps the historical unprotected behaviour, so existing experiments
// and goldens are unperturbed.
type OverloadPolicy struct {
	// QueueCap bounds the per-pool admission queue; arrivals beyond it
	// are shed with vfsapi.ErrOverload (default 32).
	QueueCap int
	// RetrySeed is the base of each client's deterministic jitter
	// stream (per-client streams are derived from it and the client
	// name, so pools do not share a sequence).
	RetrySeed uint64
}

// admissionFor builds the pool's admission controller, coupling its
// high-water signal to kernel brownout and the trace event stream.
func (tb *Testbed) admissionFor(name string) *vfsapi.Admission {
	pol := tb.Overload
	if pol == nil {
		return nil
	}
	return vfsapi.NewAdmission(tb.Eng, name, vfsapi.AdmissionConfig{
		QueueCap: pol.QueueCap,
		OnPressure: func(high bool) {
			if high {
				tb.Obs.Mark(name, "admission:highwater")
				tb.Kernel.BrownoutEnter()
			} else {
				tb.Obs.Mark(name, "admission:lowwater")
				tb.Kernel.BrownoutExit()
			}
		},
	})
}

// breakerFor builds one client's breaker hook and jitter seed. The
// hook marks transitions in the trace and holds the kernel in brownout
// while the breaker is open or probing (it releases only on a full
// close); the thresholds come from model.Params.
func (tb *Testbed) breakerFor(tenant, clientName string) (func(from, to cluster.BreakerState), uint64) {
	pol := tb.Overload
	if pol == nil {
		return nil, 0
	}
	contributing := false
	k := tb.Kernel
	onChange := func(from, to cluster.BreakerState) {
		tb.Obs.Mark(tenant, "breaker:"+to.String())
		switch {
		case to == cluster.BreakerOpen && !contributing:
			contributing = true
			k.BrownoutEnter()
		case to == cluster.BreakerClosed && contributing:
			contributing = false
			k.BrownoutExit()
		}
	}
	return onChange, seedFor(pol.RetrySeed, clientName)
}

// seedFor derives a per-client jitter seed from the policy base and
// the client name (FNV-1a), so clients draw independent deterministic
// streams.
func seedFor(base uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	s := base ^ h
	if s == 0 {
		s = 1
	}
	return s
}
