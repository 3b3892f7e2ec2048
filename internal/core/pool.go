package core

import (
	"fmt"

	"repro/internal/cephclient"
	"repro/internal/cpu"
	"repro/internal/fusefs"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/memacct"
	"repro/internal/metrics"
	"repro/internal/unionfs"
	"repro/internal/vfsapi"
)

// Pool is a container pool: the reserved cores and memory of one tenant
// on the host, holding its containers and filesystem services.
type Pool struct {
	tb   *Testbed
	Name string
	Mask cpu.Mask
	Mem  int64
	Acct *cpu.Account

	// Memory is the group of cache meters charged to this pool across
	// all of its mounts (client caches and page caches).
	Memory memacct.Group

	// Admission is the pool's bounded admission controller, installed
	// at every mount facade when the testbed has an OverloadPolicy
	// (nil = unprotected).
	Admission *vfsapi.Admission

	containers []*Container
	clients    []*cephclient.Client
	cephFuse   map[*cephclient.Client]*fusefs.Transport
	// fuseDaemons tracks every FUSE daemon the pool runs (ceph-fuse,
	// unionfs-fuse, danaus-legacy) and kernMounts every kernel mount it
	// owns — the process inventory a crash domain kills (crash.go).
	fuseDaemons []*fusefs.Transport
	kernMounts  []*kern.Mount
	mounts      int
}

// Repin changes the pool's core reservation at runtime (§9 dynamic
// reallocation): the pool's clients and IPC transports move to the new
// mask, and threads created afterwards inherit it. CPU consumed so far
// stays attributed to the pool's account.
func (p *Pool) Repin(mask cpu.Mask) {
	if mask == 0 {
		return
	}
	p.Mask = mask
	for _, c := range p.clients {
		c.Repin(mask)
	}
	for _, cont := range p.containers {
		if cont.Mount.IPC != nil {
			cont.Mount.IPC.Repin(mask)
		}
	}
}

// Stop terminates the pool's user-level client flusher threads.
func (p *Pool) Stop() {
	for _, c := range p.clients {
		c.Stop()
	}
}

// Containers returns the pool's containers.
func (p *Pool) Containers() []*Container { return p.containers }

// FaultStats sums the fault counters of every distinct user-level
// client and kernel Ceph mount behind the pool's containers. Scaleup
// clones share their client or kernel mount (MountSpec.SharedClient,
// SharedKernelMount), which is counted once.
func (p *Pool) FaultStats() metrics.FaultCounters {
	var total metrics.FaultCounters
	seen := map[any]bool{}
	for _, cont := range p.containers {
		if c := cont.Mount.Client; c != nil && !seen[c] {
			seen[c] = true
			total.Add(c.FaultStats())
		}
		if m := cont.Mount.KernelMount; m != nil && !seen[m] {
			seen[m] = true
			if cs, ok := m.Store().(*kern.CephStore); ok {
				total.Add(cs.FaultStats())
			}
		}
	}
	return total
}

// MountSpec describes one container filesystem: the Table 1
// configuration plus the union branch directories on the shared
// cluster namespace.
type MountSpec struct {
	// Config selects the client system composition.
	Config Configuration
	// LowerDir is the read-only image branch on the cluster; empty
	// disables the union for configurations that allow it (D, K, F, FP
	// run standalone in the paper).
	LowerDir string
	// UpperDir is the writable branch (or the root directory for
	// unionless mounts). Required.
	UpperDir string
	// CacheBytes sizes the user-level client cache (default: 50% of
	// pool memory, the paper's setting).
	CacheBytes int64
	// SharedClient reuses an existing user-level client (pool scaleup:
	// cloned containers share one Ceph client). Nil creates a private
	// client.
	SharedClient *cephclient.Client
	// SharedKernelMount reuses an existing kernel Ceph mount for
	// kernel-client configurations in scaleup.
	SharedKernelMount *kern.Mount
}

// MountResult is an assembled container filesystem.
type MountResult struct {
	// Default is the filesystem reached through the configuration's
	// primary interface (shared-memory IPC for Danaus, syscalls/FUSE
	// otherwise).
	Default vfsapi.FileSystem
	// Legacy is the path taken by kernel-initiated I/O (exec, mmap):
	// the FUSE path for Danaus, identical to Default elsewhere.
	Legacy vfsapi.FileSystem
	// Client is the user-level client if the configuration has one.
	Client *cephclient.Client
	// KernelMount is the kernel Ceph mount if the configuration has one.
	KernelMount *kern.Mount
	// Union is the union filesystem if the configuration stacks one.
	Union *unionfs.Union
	// IPC is the Danaus transport (nil for other configurations).
	IPC *ipc.Transport
}

// newClient creates (or reuses) a user-level Ceph client for the pool.
func (p *Pool) newClient(spec MountSpec) *cephclient.Client {
	if spec.SharedClient != nil {
		return spec.SharedClient
	}
	cache := spec.CacheBytes
	if cache <= 0 {
		cache = p.Mem / 2 // paper: client cache = 50% of pool memory
	}
	meter := memacct.NewMeter(fmt.Sprintf("%s.ulcc%d", p.Name, p.mounts))
	clientName := fmt.Sprintf("%s.client%d", p.Name, p.mounts)
	brk, retrySeed := p.tb.breakerFor(p.Name, clientName)
	c := cephclient.New(p.tb.Eng, p.tb.CPU, p.tb.Params, p.tb.Cluster, cephclient.Config{
		Name:       clientName,
		CacheLimit: cache,
		MaxDirty:   cache / 2, // paper: max dirty = 50% of client cache
		Mask:       p.Mask,
		Acct:       p.Acct,
		Meter:      meter,
		Flushers:   2,
		Tenant:     p.Name,
		Obs:        p.tb.Obs,
		Breaker:    brk,
		RetrySeed:  retrySeed,
	})
	p.clients = append(p.clients, c)
	p.Memory.Add(meter)
	return c
}

// newKernelMount creates (or reuses) a kernel Ceph mount for the pool.
func (p *Pool) newKernelMount(spec MountSpec) *kern.Mount {
	if spec.SharedKernelMount != nil {
		return spec.SharedKernelMount
	}
	meter := memacct.NewMeter(fmt.Sprintf("%s.pagc%d", p.Name, p.mounts))
	m := p.tb.Kernel.Mount(kern.NewCephStore(p.tb.Kernel, p.tb.Cluster), kern.MountConfig{
		Name:     fmt.Sprintf("%s.cephfs%d", p.Name, p.mounts),
		Tenant:   p.Name,
		MemLimit: p.Mem,
		MaxDirty: p.Mem / 2, // paper: max dirty = 50% of pool RAM
		Meter:    meter,
	})
	p.Memory.Add(meter)
	p.kernMounts = append(p.kernMounts, m)
	return m
}

// pagedOver stacks the kernel page cache on a user-level filesystem
// (the FP construction) and returns the syscall-wrapped mount.
func (p *Pool) pagedOver(inner vfsapi.FileSystem, label string) (*kern.Mount, vfsapi.FileSystem) {
	meter := memacct.NewMeter(fmt.Sprintf("%s.%s.pagc%d", p.Name, label, p.mounts))
	m := p.tb.Kernel.Mount(kern.NewFSStore(inner), kern.MountConfig{
		Name:     fmt.Sprintf("%s.%s%d", p.Name, label, p.mounts),
		Tenant:   p.Name,
		MemLimit: p.Mem,
		MaxDirty: p.Mem / 2,
		Meter:    meter,
	})
	p.Memory.Add(meter)
	p.kernMounts = append(p.kernMounts, m)
	return m, kern.NewSyscalls(p.tb.Kernel, m)
}

// fuseOver serves inner through a FUSE daemon owned by the pool.
func (p *Pool) fuseOver(inner vfsapi.FileSystem, label string) *fusefs.Transport {
	t := fusefs.New(p.tb.Eng, p.tb.CPU, p.tb.Params, inner, fusefs.Config{
		Name: fmt.Sprintf("%s.%s%d", p.Name, label, p.mounts),
		Acct: p.Acct,
		Mask: p.Mask,
	})
	p.fuseDaemons = append(p.fuseDaemons, t)
	return t
}

// cephFuseFor returns the single ceph-fuse daemon of a client: there is
// ONE ceph-fuse process per mounted client, so cloned containers that
// share the client also share (and contend on) its daemon threads.
func (p *Pool) cephFuseFor(client *cephclient.Client) *fusefs.Transport {
	if p.cephFuse == nil {
		p.cephFuse = map[*cephclient.Client]*fusefs.Transport{}
	}
	if t, ok := p.cephFuse[client]; ok {
		return t
	}
	t := p.fuseOver(client, "ceph-fuse")
	p.cephFuse[client] = t
	return t
}

// union stacks the union filesystem over branch filesystems.
func (p *Pool) union(upper, lower vfsapi.FileSystem, spec MountSpec, kind cpu.TimeKind) *unionfs.Union {
	branches := []unionfs.Branch{{FS: upper, Root: spec.UpperDir, Writable: true}}
	if spec.LowerDir != "" {
		branches = append(branches, unionfs.Branch{FS: lower, Root: spec.LowerDir})
	}
	return unionfs.New(branches, unionfs.Config{Kind: kind, Params: p.tb.Params})
}

// subtree roots a filesystem at a directory when no union is stacked.
func subtree(fs vfsapi.FileSystem, root string) vfsapi.FileSystem {
	if root == "" || root == "/" {
		return fs
	}
	return &prefixFS{inner: fs, prefix: root}
}

// Mount assembles the filesystem stack of Table 1 for one container.
func (p *Pool) Mount(spec MountSpec) (*MountResult, error) {
	if spec.UpperDir == "" {
		return nil, fmt.Errorf("core: MountSpec.UpperDir is required")
	}
	defer func() { p.mounts++ }()
	res := &MountResult{}
	switch spec.Config {
	case ConfigD:
		client := p.newClient(spec)
		res.Client = client
		var instance vfsapi.FileSystem
		if spec.LowerDir != "" {
			// Union libservice invoking the client libservice through
			// function calls — no crossing between them.
			res.Union = p.union(client, client, spec, cpu.User)
			instance = res.Union
		} else {
			instance = subtree(client, spec.UpperDir)
		}
		res.IPC = ipc.New(p.tb.Eng, p.tb.CPU, p.tb.Params, instance, ipc.Config{
			Name: fmt.Sprintf("%s.svc%d", p.Name, p.mounts),
			Mask: p.Mask,
			Acct: p.Acct,
		})
		res.Default = res.IPC
		res.Legacy = p.fuseOver(instance, "danaus-legacy")

	case ConfigK:
		m := p.newKernelMount(spec)
		res.KernelMount = m
		fs := kern.NewSyscalls(p.tb.Kernel, subtree(m, spec.UpperDir))
		res.Default, res.Legacy = fs, fs

	case ConfigF:
		client := p.newClient(spec)
		res.Client = client
		fs := subtree(p.cephFuseFor(client), spec.UpperDir)
		res.Default, res.Legacy = fs, fs

	case ConfigFP:
		client := p.newClient(spec)
		res.Client = client
		fuse := subtree(p.cephFuseFor(client), spec.UpperDir)
		m, fs := p.pagedOver(fuse, "fusepagc")
		res.KernelMount = m
		res.Default, res.Legacy = fs, fs

	case ConfigKK:
		m := p.newKernelMount(spec)
		res.KernelMount = m
		res.Union = p.union(m, m, spec, cpu.Kernel)
		fs := kern.NewSyscalls(p.tb.Kernel, res.Union)
		res.Default, res.Legacy = fs, fs

	case ConfigFK:
		m := p.newKernelMount(spec)
		res.KernelMount = m
		branch := kern.NewSyscalls(p.tb.Kernel, m)
		res.Union = p.union(branch, branch, spec, cpu.User)
		fs := p.fuseOver(res.Union, "unionfs-fuse")
		res.Default, res.Legacy = fs, fs

	case ConfigFF:
		client := p.newClient(spec)
		res.Client = client
		branch := p.cephFuseFor(client)
		res.Union = p.union(branch, branch, spec, cpu.User)
		fs := p.fuseOver(res.Union, "unionfs-fuse")
		res.Default, res.Legacy = fs, fs

	case ConfigFPFP:
		client := p.newClient(spec)
		res.Client = client
		cephFuse := p.cephFuseFor(client)
		_, branch := p.pagedOver(cephFuse, "cephfusepagc")
		res.Union = p.union(branch, branch, spec, cpu.User)
		unionFuse := p.fuseOver(res.Union, "unionfs-fuse")
		m, fs := p.pagedOver(unionFuse, "unionpagc")
		res.KernelMount = m
		res.Default, res.Legacy = fs, fs

	default:
		return nil, fmt.Errorf("core: unknown configuration %v", spec.Config)
	}
	// The admission controller sits directly under the observability
	// facade: every operation entering the container's mount claims a
	// slot (or is shed), and the queue wait lands inside the request
	// span. Both wrappers are no-ops (return the inner fs) when their
	// feature is off.
	res.Default = vfsapi.Traced(vfsapi.Admitted(res.Default, p.Admission), p.tb.Obs, p.Name)
	res.Legacy = vfsapi.Traced(vfsapi.Admitted(res.Legacy, p.Admission), p.tb.Obs, p.Name)
	return res, nil
}

// NewContainer creates a container in the pool with the given root
// filesystem mount.
func (p *Pool) NewContainer(name string, spec MountSpec) (*Container, error) {
	mr, err := p.Mount(spec)
	if err != nil {
		return nil, err
	}
	c := &Container{Name: name, Pool: p, Mount: mr, spec: spec}
	p.containers = append(p.containers, c)
	return c, nil
}

// Container is one container: a named process group of a pool with its
// root filesystem.
type Container struct {
	Name    string
	Pool    *Pool
	Mount   *MountResult
	spec    MountSpec // retained for migration remounts
	stopped bool
}

// NewThread creates a CPU thread confined to the container's pool
// (its cgroup cpuset) and charged to the pool's account.
func (c *Container) NewThread() *cpu.Thread {
	return c.Pool.tb.CPU.NewThread(c.Pool.Acct, c.Pool.Mask)
}

// prefixFS roots an inner filesystem at a path prefix.
type prefixFS struct {
	inner  vfsapi.FileSystem
	prefix string
}

func (f *prefixFS) full(path string) string { return f.prefix + path }

func (f *prefixFS) Open(ctx vfsapi.Ctx, path string, flags vfsapi.OpenFlag) (vfsapi.Handle, error) {
	return f.inner.Open(ctx, f.full(path), flags)
}

func (f *prefixFS) Stat(ctx vfsapi.Ctx, path string) (vfsapi.FileInfo, error) {
	return f.inner.Stat(ctx, f.full(path))
}

func (f *prefixFS) Mkdir(ctx vfsapi.Ctx, path string) error {
	return f.inner.Mkdir(ctx, f.full(path))
}

func (f *prefixFS) Readdir(ctx vfsapi.Ctx, path string) ([]vfsapi.DirEntry, error) {
	return f.inner.Readdir(ctx, f.full(path))
}

func (f *prefixFS) Unlink(ctx vfsapi.Ctx, path string) error {
	return f.inner.Unlink(ctx, f.full(path))
}

func (f *prefixFS) Rmdir(ctx vfsapi.Ctx, path string) error {
	return f.inner.Rmdir(ctx, f.full(path))
}

func (f *prefixFS) Rename(ctx vfsapi.Ctx, oldPath, newPath string) error {
	return f.inner.Rename(ctx, f.full(oldPath), f.full(newPath))
}
