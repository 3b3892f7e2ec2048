package kern

import (
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
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

	pool []*sysRun // recycled open runs
}

// NewSyscalls wraps inner with syscall entry/exit costs.
func NewSyscalls(k *Kernel, inner vfsapi.FileSystem) *Syscalls {
	s := &Syscalls{kern: k}
	s.FileSystem = vfsapi.Wrap[struct{}](inner, s, nil)
	return s
}

// Do enters the kernel, dispatches c and exits. A Read, Write or Close
// of a kernel mount's page-cache handle is the handle's request run
// with the entry and exit as its first and last steps (see request),
// and an Open of a filesystem that can start it as a run is that run
// between the entry and exit chains (see sysRun).
func (s *Syscalls) Do(ctx vfsapi.Ctx, c vfsapi.Call, _ struct{}) (vfsapi.Result, error) {
	if ph, ok := c.H.(*pagedHandle); ok && (c.Kind == vfsapi.OpRead || c.Kind == vfsapi.OpWrite || c.Kind == vfsapi.OpClose) {
		return ph.syscall(ctx, s, &c)
	}
	if _, ok := c.FS.(vfsapi.Starter); ok && c.Kind == vfsapi.OpOpen {
		return s.open(ctx, &c)
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

// open is Syscalls' Open c in its process: the entry chain, the open's
// run and the exit chain park it once (see sysRun); where the run hands
// control back, or the filesystem starts none, the process goes on
// with the open and the exit itself.
func (s *Syscalls) open(ctx vfsapi.Ctx, c *vfsapi.Call) (vfsapi.Result, error) {
	sc := ctx.Span.Enter(obs.LayerSyscall)
	x := s.getRun(ctx, c)
	ctx.T.LockedChainThen(ctx.P, nil, nil, "", x.entered, ctx.T.ModeSwitchStep(), cpu.Charge(cpu.Kernel, s.kern.params.VFSOpCost))
	ctx.P.Park()
	run, exited := x.run, x.exited
	var r vfsapi.Result
	var err error
	if run == nil {
		r, err = x.c.Do(ctx)
	} else {
		r, err = run.Finish(ctx)
	}
	s.putRun(x)
	if !exited {
		ctx.T.ModeSwitch(ctx.P)
	}
	sc.Exit()
	return r, err
}

// sysRun carries an Open through the system call while its process
// stays parked: where the entry chain ends it starts the open's run
// (vfsapi.Call.Start) with the exit chain as the run's reply, and where
// that chain ends it resumes the process, which takes the run's result.
// Each step runs at the event where the straight-line system call
// resumed the process, so the run keeps every simulated result.
type sysRun struct {
	p      *sim.Proc
	t      *cpu.Thread
	span   *obs.Span
	c      vfsapi.Call
	run    vfsapi.Run // the open's run; nil when the filesystem starts none
	exited bool       // the run's reply charged the exit

	entered, replied, out func() // reusable continuations (start, reply, exited)
}

func (s *Syscalls) getRun(ctx vfsapi.Ctx, c *vfsapi.Call) *sysRun {
	var x *sysRun
	if n := len(s.pool); n > 0 {
		x = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		x = &sysRun{}
		x.entered, x.replied, x.out = x.start, x.reply, x.exit
	}
	x.p, x.t, x.span, x.c, x.run, x.exited = ctx.P, ctx.T, ctx.Span, *c, nil, false
	return x
}

func (s *Syscalls) putRun(x *sysRun) {
	x.p, x.t, x.span, x.c, x.run = nil, nil, nil, vfsapi.Call{}, nil
	s.pool = append(s.pool, x)
}

// start starts the open's run where the entry chain ends; without one
// it hands control back to the process.
func (x *sysRun) start() {
	if x.run = x.c.Start(vfsapi.Ctx{P: x.p, T: x.t, Span: x.span}, x.replied); x.run == nil {
		x.p.ResumeHere()
	}
}

// reply charges the exit mode switch once the run has served the open.
func (x *sysRun) reply() { x.t.LockedChainThen(x.p, nil, nil, "", x.out, x.t.ModeSwitchStep()) }

// exit resumes the process where the exit chain ends.
func (x *sysRun) exit() {
	x.exited = true
	x.p.ResumeHere()
}
