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
	return &tracedFS{inner: fs, rec: rec, tenant: tenant}
}

type tracedFS struct {
	inner  FileSystem
	rec    *obs.Recorder
	tenant string
}

func (t *tracedFS) begin(ctx Ctx, op string) (Ctx, *obs.Span) {
	if ctx.Span != nil {
		// Already inside a traced request (nested facade); keep it.
		return ctx, nil
	}
	proc := 0
	if ctx.P != nil {
		proc = ctx.P.ID()
	}
	sp := t.rec.StartSpan(proc, t.tenant, op)
	ctx.Span = sp
	return ctx, sp
}

func (t *tracedFS) Open(ctx Ctx, path string, flags OpenFlag) (Handle, error) {
	ctx, sp := t.begin(ctx, "open")
	h, err := t.inner.Open(ctx, path, flags)
	t.rec.OpDone(sp, path, "", int(flags), 0, 0, 0, err)
	sp.End(0, err)
	if err != nil {
		return nil, err
	}
	return &tracedHandle{inner: h, fs: t, path: path}, nil
}

func (t *tracedFS) Stat(ctx Ctx, path string) (FileInfo, error) {
	ctx, sp := t.begin(ctx, "stat")
	fi, err := t.inner.Stat(ctx, path)
	t.rec.OpDone(sp, path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return fi, err
}

func (t *tracedFS) Mkdir(ctx Ctx, path string) error {
	ctx, sp := t.begin(ctx, "mkdir")
	err := t.inner.Mkdir(ctx, path)
	t.rec.OpDone(sp, path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return err
}

func (t *tracedFS) Readdir(ctx Ctx, path string) ([]DirEntry, error) {
	ctx, sp := t.begin(ctx, "readdir")
	ents, err := t.inner.Readdir(ctx, path)
	t.rec.OpDone(sp, path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return ents, err
}

func (t *tracedFS) Unlink(ctx Ctx, path string) error {
	ctx, sp := t.begin(ctx, "unlink")
	err := t.inner.Unlink(ctx, path)
	t.rec.OpDone(sp, path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return err
}

func (t *tracedFS) Rmdir(ctx Ctx, path string) error {
	ctx, sp := t.begin(ctx, "rmdir")
	err := t.inner.Rmdir(ctx, path)
	t.rec.OpDone(sp, path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return err
}

func (t *tracedFS) Rename(ctx Ctx, oldPath, newPath string) error {
	ctx, sp := t.begin(ctx, "rename")
	err := t.inner.Rename(ctx, oldPath, newPath)
	t.rec.OpDone(sp, oldPath, newPath, 0, 0, 0, 0, err)
	sp.End(0, err)
	return err
}

type tracedHandle struct {
	inner Handle
	fs    *tracedFS
	// path is the facade-level open path. Handle ops are recorded with
	// it (not inner.Path(), which lower layers may have resolved to a
	// different namespace), so a replayed open and the ops on its
	// handle key the same path.
	path string
}

func (h *tracedHandle) Read(ctx Ctx, off, n int64) (int64, error) {
	ctx, sp := h.fs.begin(ctx, "read")
	got, err := h.inner.Read(ctx, off, n)
	// Len carries the *requested* length (replay must reissue the
	// original request even when short-read); Bytes carries what was
	// actually served, matching Span.End so telemetry byte totals agree
	// with the metrics registry.
	h.fs.rec.OpDone(sp, h.path, "", 0, off, n, got, err)
	sp.End(got, err)
	return got, err
}

func (h *tracedHandle) Write(ctx Ctx, off, n int64) (int64, error) {
	ctx, sp := h.fs.begin(ctx, "write")
	got, err := h.inner.Write(ctx, off, n)
	h.fs.rec.OpDone(sp, h.path, "", 0, off, n, got, err)
	sp.End(got, err)
	return got, err
}

func (h *tracedHandle) Append(ctx Ctx, n int64) (int64, error) {
	ctx, sp := h.fs.begin(ctx, "append")
	off, err := h.inner.Append(ctx, n)
	h.fs.rec.OpDone(sp, h.path, "", 0, 0, n, n, err)
	sp.End(n, err)
	return off, err
}

func (h *tracedHandle) Fsync(ctx Ctx) error {
	ctx, sp := h.fs.begin(ctx, "fsync")
	err := h.inner.Fsync(ctx)
	h.fs.rec.OpDone(sp, h.path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return err
}

func (h *tracedHandle) Close(ctx Ctx) error {
	ctx, sp := h.fs.begin(ctx, "close")
	err := h.inner.Close(ctx)
	h.fs.rec.OpDone(sp, h.path, "", 0, 0, 0, 0, err)
	sp.End(0, err)
	return err
}

func (h *tracedHandle) Size() int64  { return h.inner.Size() }
func (h *tracedHandle) Path() string { return h.inner.Path() }
