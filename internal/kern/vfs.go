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
	vfsapi.FileSystem // the wrapped filesystem, every operation through Do
	kern              *Kernel
}

// NewSyscalls wraps inner with syscall entry/exit costs.
func NewSyscalls(k *Kernel, inner vfsapi.FileSystem) *Syscalls {
	s := &Syscalls{kern: k}
	s.FileSystem = vfsapi.Wrap[struct{}](inner, s, nil)
	return s
}

// Do enters the kernel, dispatches c and exits. A Read, Write or Close
// of a kernel mount's page-cache handle is the handle's request run
// with the entry and exit as its first and last steps (see request).
func (s *Syscalls) Do(ctx vfsapi.Ctx, c vfsapi.Call, _ struct{}) (vfsapi.Result, error) {
	if ph, ok := c.H.(*pagedHandle); ok && (c.Kind == vfsapi.OpRead || c.Kind == vfsapi.OpWrite || c.Kind == vfsapi.OpClose) {
		return ph.syscall(ctx, s, &c)
	}
	sc := s.enter(ctx)
	r, err := c.Do(ctx)
	s.exit(ctx, sc)
	return r, err
}

// enter and exit are the blocking system call's entry (mode switch and
// VFS dispatch) and exit mode switch, each in its own frame so the
// frame under the dispatched operation stays small.
func (s *Syscalls) enter(ctx vfsapi.Ctx) obs.Scope {
	sc := ctx.Span.Enter(obs.LayerSyscall)
	ctx.T.Chain(ctx.P, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, s.kern.params.VFSOpCost))
	return sc
}

func (s *Syscalls) exit(ctx vfsapi.Ctx, sc obs.Scope) {
	ctx.T.ModeSwitch(ctx.P)
	sc.Exit()
}
