// Package danaus is a simulation-based reproduction of "Experience
// Paper: Danaus: Isolation and Efficiency of Container I/O at the
// Client Side of Network Storage" (Kappes & Anastasiadis,
// Middleware '21).
//
// Danaus provisions a distinct user-level filesystem client per tenant
// on a multitenant host: each container pool gets its own filesystem
// service — a union filesystem libservice stacked over a Ceph client
// libservice with a configurable cache — reached over shared-memory
// queues, with a FUSE legacy path for kernel-initiated I/O. This
// package is the public facade over the full reproduction: the
// deterministic discrete-event testbed (host kernel, CPU, network,
// disks, Ceph-like cluster), the eight client configurations of the
// paper's Table 1, the workloads of Table 2, and runners for every
// evaluation figure.
//
// # Quickstart
//
//	tb := danaus.NewTestbed(danaus.TestbedConfig{Cores: 4})
//	tb.Cluster.ProvisionDir("/containers/c0")
//	pool := tb.NewPool("tenant-a", danaus.CoreMask(0, 1), 8<<30)
//	c, _ := pool.NewContainer("c0", danaus.MountSpec{
//		Config:   danaus.D,
//		UpperDir: "/containers/c0",
//	})
//	tb.Eng.Go("app", func(p *danaus.Proc) {
//		ctx := danaus.Ctx{P: p, T: c.NewThread()}
//		h, _ := c.Mount.Default.Open(ctx, "/hello.txt", danaus.Create|danaus.WriteOnly)
//		h.Write(ctx, 0, 4096)
//		h.Close(ctx)
//		tb.Stop()
//	})
//	tb.Eng.Run()
//
// See the examples directory for multitenant isolation, a key-value
// store over Danaus, and webserver startup scaleup.
package danaus

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Core simulation types.
type (
	// Testbed is the full experimental environment (client host +
	// storage cluster), the Fig 5 setup.
	Testbed = core.Testbed
	// TestbedConfig sizes the testbed.
	TestbedConfig = core.TestbedConfig
	// Pool is a container pool: the reserved cores and memory of one
	// tenant.
	Pool = core.Pool
	// Container is one container with its root filesystem mount.
	Container = core.Container
	// MountSpec describes a container filesystem configuration.
	MountSpec = core.MountSpec
	// MountResult is an assembled filesystem stack.
	MountResult = core.MountResult
	// Configuration names a Table 1 client composition.
	Configuration = core.Configuration
	// Library is the Danaus filesystem library (front driver) with its
	// private file-descriptor table and mount table.
	Library = core.Library
	// Proc is a simulated process.
	Proc = sim.Proc
	// Engine is the discrete-event engine.
	Engine = sim.Engine
	// Ctx carries a simulated thread through filesystem calls.
	Ctx = vfsapi.Ctx
	// FileSystem is the POSIX-like filesystem interface.
	FileSystem = vfsapi.FileSystem
	// Handle is an open file.
	Handle = vfsapi.Handle
	// FileInfo describes a file.
	FileInfo = vfsapi.FileInfo
	// OpenFlag is a bitmask of open flags.
	OpenFlag = vfsapi.OpenFlag
	// Mask is a set of processor cores.
	Mask = cpu.Mask
)

// Table 1 configurations.
const (
	// D is Danaus: union + client libservices over shared-memory IPC.
	D = core.ConfigD
	// K is the kernel CephFS client.
	K = core.ConfigK
	// F is ceph-fuse with direct I/O.
	F = core.ConfigF
	// FP is ceph-fuse with the page cache stacked on top.
	FP = core.ConfigFP
	// KK is AUFS over kernel CephFS.
	KK = core.ConfigKK
	// FK is unionfs-fuse over kernel CephFS.
	FK = core.ConfigFK
	// FF is unionfs-fuse over ceph-fuse.
	FF = core.ConfigFF
	// FPFP is unionfs-fuse over ceph-fuse with the page cache used by
	// both layers.
	FPFP = core.ConfigFPFP
)

// Open flags.
const (
	// ReadOnly opens for reading.
	ReadOnly = vfsapi.RDONLY
	// WriteOnly opens for writing.
	WriteOnly = vfsapi.WRONLY
	// ReadWrite opens for reading and writing.
	ReadWrite = vfsapi.RDWR
	// Create creates the file if missing.
	Create = vfsapi.CREATE
	// Truncate empties the file on open.
	Truncate = vfsapi.TRUNC
	// Append positions writes at end of file.
	Append = vfsapi.APPEND
	// Direct bypasses the kernel page cache.
	Direct = vfsapi.DIRECT
)

// NewTestbed builds the simulated environment of the paper's Fig 5.
func NewTestbed(cfg TestbedConfig) *Testbed { return core.NewTestbed(cfg) }

// NewLibrary creates a Danaus filesystem library (front driver) with an
// optional kernel fallback.
func NewLibrary(fallback FileSystem) *Library { return core.NewLibrary(fallback) }

// CoreMask builds a processor core set.
func CoreMask(cores ...int) Mask { return cpu.MaskOf(cores...) }

// CoreRange builds a mask of cores [lo, hi).
func CoreRange(lo, hi int) Mask { return cpu.MaskRange(lo, hi) }

// AllConfigurations lists Table 1 in presentation order.
func AllConfigurations() []Configuration { return core.AllConfigurations() }

// Experiment scales.
type Scale = experiments.Scale

// Run is one run of an experiment runner: a scale plus an optional hook
// that sees every testbed the runner builds before any pool exists.
type Run = experiments.Run

// Predefined experiment scales.
var (
	// QuickScale runs each experiment in well under a second.
	QuickScale = experiments.QuickScale
	// DefaultScale balances fidelity and wall time.
	DefaultScale = experiments.DefaultScale
	// PaperScale matches the published parameters (120 s windows).
	PaperScale = experiments.PaperScale
)
