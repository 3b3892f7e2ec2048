// Package vfsapi defines the POSIX-like filesystem contract shared by
// every client path in the simulation: the kernel CephFS client, the
// FUSE clients, the union filesystems and the Danaus libservices all
// implement FileSystem, so workloads are written once and run against
// any configuration of Table 1.
//
// The simulation moves byte *counts*, not byte contents: reads and
// writes carry sizes and offsets, and the model charges the copy,
// cache, lock, network and device costs those sizes imply. Namespace
// semantics (create, unlink, rename, whiteouts, copy-up) are modelled
// exactly.
package vfsapi

import (
	"errors"
	"time"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Ctx carries the calling simulated thread through the stack: P is the
// scheduling process and T the CPU thread (affinity + accounting).
// Span, when non-nil, is the request-scoped observability span; layers
// bracket their work with Span.Enter and transports must copy it into
// the daemon-side Ctx they build (see internal/obs).
type Ctx struct {
	P    *sim.Proc
	T    *cpu.Thread
	Span *obs.Span
}

// OpenFlag is a bitmask of POSIX-like open flags.
type OpenFlag int

// Open flags. RDONLY is the zero value.
const (
	RDONLY OpenFlag = 0
	WRONLY OpenFlag = 1 << iota
	RDWR
	CREATE
	TRUNC
	APPEND
	// DIRECT bypasses the kernel page cache (the direct I/O mount
	// option used for configurations F, F/K and F/F).
	DIRECT
)

// Writable reports whether the flags permit writing.
func (f OpenFlag) Writable() bool { return f&(WRONLY|RDWR|APPEND) != 0 }

// Has reports whether flag o is set.
func (f OpenFlag) Has(o OpenFlag) bool { return f&o != 0 }

// Truncates reports whether an open with f truncates the file.
func (f OpenFlag) Truncates() bool { return f.Has(TRUNC) && f.Writable() }

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string
	Size  int64
	IsDir bool
	MTime time.Duration // virtual time of last modification
}

// DirEntry is one readdir result.
type DirEntry struct {
	Name  string
	IsDir bool
}

// FileSystem is the POSIX-like interface of every client path.
type FileSystem interface {
	// Open opens (and with CREATE, creates) the file at path.
	Open(ctx Ctx, path string, flags OpenFlag) (Handle, error)
	// Stat returns metadata for path.
	Stat(ctx Ctx, path string) (FileInfo, error)
	// Mkdir creates a directory.
	Mkdir(ctx Ctx, path string) error
	// Readdir lists a directory.
	Readdir(ctx Ctx, path string) ([]DirEntry, error)
	// Unlink removes a file.
	Unlink(ctx Ctx, path string) error
	// Rmdir removes an empty directory.
	Rmdir(ctx Ctx, path string) error
	// Rename moves oldPath to newPath.
	Rename(ctx Ctx, oldPath, newPath string) error
}

// Handle is an open file.
type Handle interface {
	// Read transfers n bytes starting at off, returning the bytes
	// actually read (short at EOF).
	Read(ctx Ctx, off, n int64) (int64, error)
	// Write transfers n bytes starting at off, extending the file as
	// needed.
	Write(ctx Ctx, off, n int64) (int64, error)
	// Append writes n bytes at the current end of file and returns the
	// offset written at.
	Append(ctx Ctx, n int64) (int64, error)
	// Fsync persists buffered data for this file to the backend.
	Fsync(ctx Ctx) error
	// Close releases the handle.
	Close(ctx Ctx) error
	// Size returns the current file size as seen by this client.
	Size() int64
	// Path returns the path the handle was opened with.
	Path() string
}

// Starter is implemented by a filesystem whose Open, and by a handle
// whose Read, Write or Close, can begin in an engine callback acting for
// a parked process: a transport's dispatch continuation starts the
// operation at the event where the process would have resumed to call
// it, so an operation served from a cache parks its process once from
// the syscall or enqueue to the end of the reply.
type Starter interface {
	// Start begins c, whose target is the Starter, for ctx.P, which is
	// parked with no pending wake or about to park. It returns nil,
	// having done nothing, when the process must run c itself, as on a
	// stale or closed handle whose error path charges CPU, or for an
	// operation the Starter runs no other way. Otherwise the run goes
	// on as engine callbacks: once it has served c it calls reply, whose
	// end must resume ctx.P, or, with a nil reply, resumes ctx.P itself;
	// at any point where the process must act it resumes ctx.P with
	// sim.(*Proc).ResumeHere without calling reply. Either way the
	// resumed process calls Finish.
	Start(ctx Ctx, c Call, reply func()) Run
}

// Run is an operation a Starter began.
type Run interface {
	// Finish goes on from where the run handed control back, in the
	// process, and returns what the operation returns. After the run
	// called reply, Finish only returns the result, so the end of the
	// reply may call it in an engine callback.
	Finish(ctx Ctx) (Result, error)
}

// Errors returned by FileSystem implementations.
var (
	ErrNotExist = errors.New("file does not exist")
	ErrExist    = errors.New("file already exists")
	ErrIsDir    = errors.New("is a directory")
	ErrNotDir   = errors.New("not a directory")
	ErrNotEmpty = errors.New("directory not empty")
	ErrReadOnly = errors.New("read-only filesystem")
	ErrBadFlags = errors.New("invalid open flags")
	ErrClosed   = errors.New("handle is closed")
	// ErrIO is returned when a client exhausts its retry budget against
	// a faulted backend (crashed OSD, partitioned link) and gives up.
	ErrIO = errors.New("input/output error")
	// ErrOverload is returned when an admission controller sheds an
	// operation because both the in-flight slots and the bounded wait
	// queue are full (see Admission).
	ErrOverload = errors.New("overloaded: admission queue full")
	// ErrCrashed is the deterministic error of a crashed client-side
	// component (Danaus libservice, FUSE daemon, or kernel client):
	// in-flight and subsequent operations fail with it until the
	// component restarts, and handles opened before the crash keep
	// failing with it after recovery until reopened — the replayable
	// remount contract (see internal/faults client crash kinds).
	ErrCrashed = errors.New("client crashed: filesystem service unavailable")
)
