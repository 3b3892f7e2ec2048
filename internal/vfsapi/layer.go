package vfsapi

// Kind is one of the twelve operations of FileSystem and Handle.
type Kind uint8

// The operations: the seven namespace operations of FileSystem, then
// the five of Handle.
const (
	OpOpen Kind = iota
	OpStat
	OpMkdir
	OpReaddir
	OpUnlink
	OpRmdir
	OpRename
	OpRead
	OpWrite
	OpAppend
	OpFsync
	OpClose
)

var kindNames = [...]string{"open", "stat", "mkdir", "readdir", "unlink", "rmdir", "rename", "read", "write", "append", "fsync", "close"}

// String returns the operation's name, as spans and traces record it.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind returns the operation named s, and false when s names none.
func ParseKind(s string) (Kind, bool) {
	for k, name := range kindNames {
		if name == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// OnHandle reports whether k is an operation of Handle.
func (k Kind) OnHandle() bool { return k >= OpRead }

// Call is one operation on its way down a stack of layers: its Kind,
// its target — FS for a namespace operation, H for a handle operation —
// and its arguments. Fields an operation does not take stay zero.
type Call struct {
	Kind  Kind
	FS    FileSystem
	H     Handle
	Path  string   // the namespace operations; Rename's source
	Path2 string   // Rename's destination
	Flags OpenFlag // Open
	Off   int64    // Read, Write
	N     int64    // Read, Write, Append: the length
}

// Result is what a Call returns: N is the bytes of a Read or Write and
// the offset an Append wrote at, H an Open's handle, Info a Stat's
// (nil for the zero FileInfo) and Ents a Readdir's. Info is a pointer so
// that a Result, with an error, fits the registers a call returns in:
// every layer returns one, and a handle operation's stack and copies
// stay small.
type Result struct {
	N    int64
	H    Handle
	Info *FileInfo
	Ents []DirEntry
}

// Do runs c against its target.
func (c *Call) Do(ctx Ctx) (Result, error) {
	switch c.Kind {
	case OpOpen:
		h, err := c.FS.Open(ctx, c.Path, c.Flags)
		return Result{H: h}, err
	case OpStat:
		info, err := c.FS.Stat(ctx, c.Path)
		return Result{Info: boxInfo(info)}, err
	case OpMkdir:
		return Result{}, c.FS.Mkdir(ctx, c.Path)
	case OpReaddir:
		ents, err := c.FS.Readdir(ctx, c.Path)
		return Result{Ents: ents}, err
	case OpUnlink:
		return Result{}, c.FS.Unlink(ctx, c.Path)
	case OpRmdir:
		return Result{}, c.FS.Rmdir(ctx, c.Path)
	case OpRename:
		return Result{}, c.FS.Rename(ctx, c.Path, c.Path2)
	case OpRead:
		n, err := c.H.Read(ctx, c.Off, c.N)
		return Result{N: n}, err
	case OpWrite:
		n, err := c.H.Write(ctx, c.Off, c.N)
		return Result{N: n}, err
	case OpAppend:
		off, err := c.H.Append(ctx, c.N)
		return Result{N: off}, err
	case OpFsync:
		return Result{}, c.H.Fsync(ctx)
	case OpClose:
		return Result{}, c.H.Close(ctx)
	}
	panic("vfsapi: Call of unknown kind")
}

// boxInfo returns a copy of info on the heap, and nil for the zero
// FileInfo. It stays out of line so that its temporaries are not in the
// frame of Call.Do, which every operation through a layer runs under.
//
//go:noinline
func boxInfo(info FileInfo) *FileInfo {
	if info == (FileInfo{}) {
		return nil
	}
	p := new(FileInfo)
	*p = info
	return p
}

// Start begins c as a run when it is an Open of a filesystem, or a
// Read, Write or Close of a handle, that is a Starter and accepts it
// (see Starter.Start); otherwise it returns nil.
func (c *Call) Start(ctx Ctx, reply func()) Run {
	var st Starter
	switch c.Kind {
	case OpOpen:
		st, _ = c.FS.(Starter)
	case OpRead, OpWrite, OpClose:
		st, _ = c.H.(Starter)
	}
	if st == nil {
		return nil
	}
	return st.Start(ctx, *c, reply)
}

// Layer is one step an operation crosses between the application and
// the filesystem that serves it: tracing, admission, a system call, a
// FUSE round trip or a shared-memory queue. Do states what the layer
// adds and reaches the layer below with c.Do or c.Start. s is the state
// the layer keeps with the handle a handle operation acts on, and the
// zero S for a namespace operation.
type Layer[S any] interface {
	Do(ctx Ctx, c Call, s S) (Result, error)
}

// StartLayer is a Layer that can also begin a handle operation c as a
// run (see Starter.Start): the handles Wrap opens over it are Starters
// that forward to Start.
type StartLayer[S any] interface {
	Start(ctx Ctx, c Call, s S, reply func()) Run
}

// Wrap returns fs with l interposed on every operation on fs and on the
// handles it opens. keep gives the state of a handle from the path it is
// opened with; a nil keep leaves it zero. The handles are Starters; their
// Start returns nil unless l is a StartLayer.
//
// Every operation through a stack of layers runs under the wrapper's
// methods, and a process's stack grows by doubling when it runs out, so
// each method calls the layer directly, with no helper frame between.
func Wrap[S any](fs FileSystem, l Layer[S], keep func(path string) S) FileSystem {
	st, _ := l.(StartLayer[S])
	return &wrapFS[S]{l: l, st: st, inner: fs, keep: keep}
}

type wrapFS[S any] struct {
	l     Layer[S]
	st    StartLayer[S] // l, when it can start a run; else nil
	inner FileSystem
	keep  func(path string) S
}

// wrapHandle is a handle wrapFS opened. s comes first, so a zero-size S
// adds no padding: a stateless layer's handle is one pointer plus the
// inner handle.
type wrapHandle[S any] struct {
	s     S
	fs    *wrapFS[S]
	inner Handle
}

func (w *wrapFS[S]) Open(ctx Ctx, path string, flags OpenFlag) (Handle, error) {
	r, err := w.l.Do(ctx, Call{Kind: OpOpen, FS: w.inner, Path: path, Flags: flags}, *new(S))
	if err != nil {
		return nil, err
	}
	h := &wrapHandle[S]{fs: w, inner: r.H}
	if w.keep != nil {
		h.s = w.keep(path)
	}
	return h, nil
}

func (w *wrapFS[S]) Stat(ctx Ctx, path string) (FileInfo, error) {
	r, err := w.l.Do(ctx, Call{Kind: OpStat, FS: w.inner, Path: path}, *new(S))
	if r.Info == nil {
		return FileInfo{}, err
	}
	return *r.Info, err
}

func (w *wrapFS[S]) Mkdir(ctx Ctx, path string) error {
	_, err := w.l.Do(ctx, Call{Kind: OpMkdir, FS: w.inner, Path: path}, *new(S))
	return err
}

func (w *wrapFS[S]) Readdir(ctx Ctx, path string) ([]DirEntry, error) {
	r, err := w.l.Do(ctx, Call{Kind: OpReaddir, FS: w.inner, Path: path}, *new(S))
	return r.Ents, err
}

func (w *wrapFS[S]) Unlink(ctx Ctx, path string) error {
	_, err := w.l.Do(ctx, Call{Kind: OpUnlink, FS: w.inner, Path: path}, *new(S))
	return err
}

func (w *wrapFS[S]) Rmdir(ctx Ctx, path string) error {
	_, err := w.l.Do(ctx, Call{Kind: OpRmdir, FS: w.inner, Path: path}, *new(S))
	return err
}

func (w *wrapFS[S]) Rename(ctx Ctx, oldPath, newPath string) error {
	_, err := w.l.Do(ctx, Call{Kind: OpRename, FS: w.inner, Path: oldPath, Path2: newPath}, *new(S))
	return err
}

func (h *wrapHandle[S]) Read(ctx Ctx, off, n int64) (int64, error) {
	r, err := h.fs.l.Do(ctx, Call{Kind: OpRead, H: h.inner, Off: off, N: n}, h.s)
	return r.N, err
}

func (h *wrapHandle[S]) Write(ctx Ctx, off, n int64) (int64, error) {
	r, err := h.fs.l.Do(ctx, Call{Kind: OpWrite, H: h.inner, Off: off, N: n}, h.s)
	return r.N, err
}

func (h *wrapHandle[S]) Append(ctx Ctx, n int64) (int64, error) {
	r, err := h.fs.l.Do(ctx, Call{Kind: OpAppend, H: h.inner, N: n}, h.s)
	return r.N, err
}

func (h *wrapHandle[S]) Fsync(ctx Ctx) error {
	_, err := h.fs.l.Do(ctx, Call{Kind: OpFsync, H: h.inner}, h.s)
	return err
}

func (h *wrapHandle[S]) Close(ctx Ctx) error {
	_, err := h.fs.l.Do(ctx, Call{Kind: OpClose, H: h.inner}, h.s)
	return err
}

// Start begins a handle operation as a run of the layer, when it can
// start one (see Starter).
func (h *wrapHandle[S]) Start(ctx Ctx, c Call, reply func()) Run {
	if h.fs.st == nil {
		return nil
	}
	c.H = h.inner
	return h.fs.st.Start(ctx, c, h.s, reply)
}

func (h *wrapHandle[S]) Size() int64  { return h.inner.Size() }
func (h *wrapHandle[S]) Path() string { return h.inner.Path() }
