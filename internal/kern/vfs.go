package kern

import (
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/vfsapi"
)

// Syscalls wraps a kernel filesystem with the user-entry costs of the
// system-call interface: a mode switch in and out of the kernel plus
// the VFS dispatch cost per operation. Kernel union filesystems and
// their branches run inside one Syscalls boundary (a single crossing),
// which is exactly the advantage the kernel path holds over stacked
// FUSE daemons.
type Syscalls struct {
	kern  *Kernel
	inner vfsapi.FileSystem
}

// NewSyscalls wraps inner with syscall entry/exit costs.
func NewSyscalls(k *Kernel, inner vfsapi.FileSystem) *Syscalls {
	return &Syscalls{kern: k, inner: inner}
}

// Inner returns the wrapped filesystem.
func (s *Syscalls) Inner() vfsapi.FileSystem { return s.inner }

func (s *Syscalls) enter(ctx vfsapi.Ctx) obs.Scope {
	sc := ctx.Span.Enter(obs.LayerSyscall)
	ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, s.kern.params.VFSOpCost))
	return sc
}

func (s *Syscalls) exit(ctx vfsapi.Ctx, sc obs.Scope) {
	ctx.T.ModeSwitch(ctx.P)
	sc.Exit()
}

// Open enters the kernel, dispatches, and returns a cost-wrapped handle.
func (s *Syscalls) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	sc := s.enter(ctx)
	h, err := s.inner.Open(ctx, path, flags)
	s.exit(ctx, sc)
	if err != nil {
		return nil, err
	}
	return &syscallHandle{s: s, inner: h}, nil
}

// Stat performs a syscall-wrapped Stat.
func (s *Syscalls) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	sc := s.enter(ctx)
	info, err := s.inner.Stat(ctx, path)
	s.exit(ctx, sc)
	return info, err
}

// Mkdir performs a syscall-wrapped Mkdir.
func (s *Syscalls) Mkdir(ctx vfsapi.Ctx, path string) error {
	sc := s.enter(ctx)
	err := s.inner.Mkdir(ctx, path)
	s.exit(ctx, sc)
	return err
}

// Readdir performs a syscall-wrapped Readdir.
func (s *Syscalls) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	sc := s.enter(ctx)
	ents, err := s.inner.Readdir(ctx, path)
	s.exit(ctx, sc)
	return ents, err
}

// Unlink performs a syscall-wrapped Unlink.
func (s *Syscalls) Unlink(ctx vfsapi.Ctx, path string) error {
	sc := s.enter(ctx)
	err := s.inner.Unlink(ctx, path)
	s.exit(ctx, sc)
	return err
}

// Rmdir performs a syscall-wrapped Rmdir.
func (s *Syscalls) Rmdir(ctx vfsapi.Ctx, path string) error {
	sc := s.enter(ctx)
	err := s.inner.Rmdir(ctx, path)
	s.exit(ctx, sc)
	return err
}

// Rename performs a syscall-wrapped Rename.
func (s *Syscalls) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	sc := s.enter(ctx)
	err := s.inner.Rename(ctx, oldPath, newPath)
	s.exit(ctx, sc)
	return err
}

// syscallHandle is an open file behind Syscalls. On a kernel mount's
// page-cache handle, Read, Write and Close run their cache-hit part as
// one request run (see request).
type syscallHandle struct {
	s     *Syscalls
	inner vfsapi.Handle
}

func (h *syscallHandle) Path() string { return h.inner.Path() }
func (h *syscallHandle) Size() int64  { return h.inner.Size() }

func (h *syscallHandle) Read(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	if ph, ok := h.inner.(*pagedHandle); ok {
		sc := ctx.Span.Enter(obs.LayerSyscall)
		got, err := ph.syscallRead(ctx, h.s.kern.params.VFSOpCost, off, n)
		sc.Exit()
		return got, err
	}
	sc := h.s.enter(ctx)
	got, err := h.inner.Read(ctx, off, n)
	h.s.exit(ctx, sc)
	return got, err
}

func (h *syscallHandle) Write(ctx vfsapi.Ctx, off, n int64) (int64, error) {
	if ph, ok := h.inner.(*pagedHandle); ok {
		sc := ctx.Span.Enter(obs.LayerSyscall)
		got, err := ph.syscallWrite(ctx, h.s.kern.params.VFSOpCost, off, n)
		sc.Exit()
		return got, err
	}
	sc := h.s.enter(ctx)
	got, err := h.inner.Write(ctx, off, n)
	h.s.exit(ctx, sc)
	return got, err
}

func (h *syscallHandle) Append(ctx vfsapi.Ctx, n int64) (int64, error) {
	sc := h.s.enter(ctx)
	off, err := h.inner.Append(ctx, n)
	h.s.exit(ctx, sc)
	return off, err
}

func (h *syscallHandle) Fsync(ctx vfsapi.Ctx) error {
	sc := h.s.enter(ctx)
	err := h.inner.Fsync(ctx)
	h.s.exit(ctx, sc)
	return err
}

func (h *syscallHandle) Close(ctx vfsapi.Ctx) error {
	if ph, ok := h.inner.(*pagedHandle); ok {
		sc := ctx.Span.Enter(obs.LayerSyscall)
		err := ph.syscallClose(ctx, h.s.kern.params.VFSOpCost)
		sc.Exit()
		return err
	}
	sc := h.s.enter(ctx)
	err := h.inner.Close(ctx)
	h.s.exit(ctx, sc)
	return err
}
