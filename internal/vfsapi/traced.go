package vfsapi

import "repro/internal/obs"

// Traced wraps fs so every operation entering it opens a request span
// tagged with tenant, propagated via Ctx.Span, and ended (with byte
// count and error flag) when the operation returns. It is the facade
// boundary of the observability layer: the testbed wraps each pool's
// mounted filesystem with it. A nil recorder returns fs unchanged, so
// the disabled path has zero wrapping overhead.
//
// When the recorder's op stream has subscribers (obs.SubscribeOps), each
// completing root operation is additionally reported with its reissue
// parameters — path, flags, offset, length — which is how
// internal/trace records a run's op stream for replay.
func Traced(fs FileSystem, rec *obs.Recorder, tenant string) FileSystem {
	if rec == nil || fs == nil {
		return fs
	}
	// A traced handle's state is its facade-level open path. Handle ops
	// are recorded with it (not the handle's Path(), which lower layers
	// may have resolved to a different namespace), so a replayed open and
	// the ops on its handle key the same path.
	return Wrap(fs, &tracer{rec: rec, tenant: tenant}, func(path string) string { return path })
}

type tracer struct {
	rec    *obs.Recorder
	tenant string
}

// Do runs c inside a request span, unless it is already inside one (a
// nested facade), and reports it to the op stream. Len carries the
// *requested* length (replay must reissue the original request even
// when short-read); Bytes carries what was actually served, matching
// Span.End so telemetry byte totals agree with the metrics registry.
func (t *tracer) Do(ctx Ctx, c Call, path string) (Result, error) {
	var sp *obs.Span
	if ctx.Span == nil {
		proc := 0
		if ctx.P != nil {
			proc = ctx.P.ID()
		}
		sp = t.rec.StartSpan(proc, t.tenant, c.Kind.String())
		ctx.Span = sp
	}
	r, err := c.Do(ctx)
	if !c.Kind.OnHandle() {
		path = c.Path
	}
	served := r.N
	if c.Kind == OpAppend {
		served = c.N // r.N is the offset written at
	}
	t.rec.OpDone(sp, path, c.Path2, int(c.Flags), c.Off, c.N, served, err)
	sp.End(served, err)
	return r, err
}
