package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fusefs"
	"repro/internal/ipc"
	"repro/internal/kern"
	"repro/internal/memfs"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// layerRig is one interposition layer over a fresh memfs, with the
// engine, host and kernel the layer needs.
type layerRig struct {
	eng  *sim.Engine
	cpus *cpu.CPU
	k    *kern.Kernel
	mem  *memfs.FS
	rec  *obs.Recorder
	ops  []obs.OpEvent
}

func newLayerRig() *layerRig {
	eng := sim.NewEngine()
	params := model.Default()
	cpus := cpu.New(eng, params, 2)
	r := &layerRig{eng: eng, cpus: cpus, k: kern.New(eng, cpus, params), mem: memfs.New()}
	r.rec = obs.New(obs.Config{Clock: eng.Now})
	r.rec.SubscribeOps(func(e obs.OpEvent) { r.ops = append(r.ops, e) })
	return r
}

// run runs script against fs in one process and drains the engine.
func (r *layerRig) run(fs vfsapi.FileSystem, script func(vfsapi.Ctx, vfsapi.FileSystem)) {
	th := r.cpus.NewThread(cpu.NewAccount("app"), 0)
	r.eng.Go("app", func(p *sim.Proc) {
		script(vfsapi.Ctx{P: p, T: th}, fs)
		r.k.Stop()
	})
	r.eng.Run()
}

// layerScript runs all twelve operations, with a multi-chunk write, an
// append, a short read across FUSE requests, a read at EOF and
// operations on missing paths, and returns what each returned and the
// sizes of the handles the stack opened. MTime is left out: it is the
// virtual time of the write, which every layer's costs move.
func layerScript(ctx vfsapi.Ctx, fs vfsapi.FileSystem) (log []string, sizes []uintptr) {
	note := func(op string, vals ...any) {
		log = append(log, fmt.Sprintf("%s %v", op, vals))
	}
	errOf := func(err error) string {
		if err == nil {
			return "ok"
		}
		return fmt.Sprintf("%v (not exist %v)", err, errors.Is(err, vfsapi.ErrNotExist))
	}
	const wrote, appended = 300 << 10, 5000
	note("mkdir", errOf(fs.Mkdir(ctx, "/d")))
	h, err := fs.Open(ctx, "/d/f", vfsapi.WRONLY|vfsapi.CREATE)
	note("open", errOf(err))
	if err != nil {
		return log, sizes
	}
	sizes = append(sizes, reflect.TypeOf(h).Elem().Size())
	n, err := h.Write(ctx, 0, wrote)
	note("write", n, errOf(err))
	off, err := h.Append(ctx, appended)
	note("append", off, errOf(err))
	note("fsync", errOf(h.Fsync(ctx)))
	note("path size", h.Path(), h.Size())
	note("close", errOf(h.Close(ctx)))
	info, err := fs.Stat(ctx, "/d/f")
	note("stat", info.Name, info.Size, info.IsDir, errOf(err))
	ents, err := fs.Readdir(ctx, "/d")
	note("readdir", ents, errOf(err))
	h, err = fs.Open(ctx, "/d/f", vfsapi.RDONLY)
	note("reopen", errOf(err))
	if err != nil {
		return log, sizes
	}
	sizes = append(sizes, reflect.TypeOf(h).Elem().Size())
	n, err = h.Read(ctx, 200000, 200000)
	note("short read", n, errOf(err))
	n, err = h.Read(ctx, wrote+appended, 4096)
	note("read at EOF", n, errOf(err))
	note("close", errOf(h.Close(ctx)))
	note("rename", errOf(fs.Rename(ctx, "/d/f", "/d/g")))
	_, err = fs.Stat(ctx, "/d/f")
	note("stat missing", errOf(err))
	_, err = fs.Open(ctx, "/d/f", vfsapi.RDONLY)
	note("open missing", errOf(err))
	note("unlink", errOf(fs.Unlink(ctx, "/d/g")))
	note("rmdir", errOf(fs.Rmdir(ctx, "/d")))
	_, err = fs.Readdir(ctx, "/d")
	note("readdir missing", errOf(err))
	return log, sizes
}

// TestLayersKeepTheContract sends every operation through each
// interposition layer — Traced, Admitted, Syscalls, a FUSE transport
// and an IPC transport — over memfs, and requires each to return what
// memfs returns when called directly: stat info and readdir entries,
// the offset Append wrote at, a short read at EOF, ErrNotExist passed
// through, and the handle's Path and Size. A stateless layer's handle
// is one pointer plus the inner handle (24 bytes) and the traced
// facade's keeps its open path too (40 bytes).
func TestLayersKeepTheContract(t *testing.T) {
	params := model.Default()
	layers := []struct {
		name   string
		handle uintptr
		wrap   func(r *layerRig) vfsapi.FileSystem
	}{
		{"memfs", 0, func(r *layerRig) vfsapi.FileSystem { return r.mem }},
		{"Traced", 40, func(r *layerRig) vfsapi.FileSystem { return vfsapi.Traced(r.mem, r.rec, "t") }},
		{"Admitted", 24, func(r *layerRig) vfsapi.FileSystem {
			return vfsapi.Admitted(r.mem, vfsapi.NewAdmission(r.eng, "t", vfsapi.AdmissionConfig{}))
		}},
		{"Syscalls", 24, func(r *layerRig) vfsapi.FileSystem { return kern.NewSyscalls(r.k, r.mem) }},
		{"FUSE", 24, func(r *layerRig) vfsapi.FileSystem {
			return fusefs.New(r.eng, r.cpus, params, r.mem, fusefs.Config{Name: "fuse"})
		}},
		{"IPC", 24, func(r *layerRig) vfsapi.FileSystem {
			return ipc.New(r.eng, r.cpus, params, r.mem, ipc.Config{Name: "ipc"})
		}},
	}
	var want []string
	for _, l := range layers {
		r := newLayerRig()
		var got []string
		var sizes []uintptr
		r.run(l.wrap(r), func(ctx vfsapi.Ctx, fs vfsapi.FileSystem) { got, sizes = layerScript(ctx, fs) })
		if want == nil {
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s returns\n%q\nmemfs returns\n%q", l.name, got, want)
		}
		for _, size := range sizes {
			if size != l.handle {
				t.Errorf("%s handle is %d bytes, want %d", l.name, size, l.handle)
			}
		}
	}
}

// TestTracedRecordsEveryOp pins the op event the traced facade reports
// for each of the twelve operations under a prefixed mount: handle ops
// are keyed by the facade's open path, not the handle's Path (which
// carries the prefix), Len is the requested length and Bytes what was
// served, and Append reports its length as both.
func TestTracedRecordsEveryOp(t *testing.T) {
	r := newLayerRig()
	if err := r.mem.Mkdir(vfsapi.Ctx{}, "/pre"); err != nil {
		t.Fatal(err)
	}
	var log []string
	r.run(vfsapi.Traced(subtree(r.mem, "/pre"), r.rec, "t"), func(ctx vfsapi.Ctx, fs vfsapi.FileSystem) {
		log, _ = layerScript(ctx, fs)
	})
	if want := "path size [/pre/d/f 312200]"; !slices.Contains(log, want) {
		t.Errorf("script returned %q, want a line %q", log, want)
	}
	type ev struct {
		op, path, path2        string
		flags                  int
		offset, length, served int64
		err                    bool
	}
	want := []ev{
		{"mkdir", "/d", "", 0, 0, 0, 0, false},
		{"open", "/d/f", "", int(vfsapi.WRONLY | vfsapi.CREATE), 0, 0, 0, false},
		{"write", "/d/f", "", 0, 0, 300 << 10, 300 << 10, false},
		{"append", "/d/f", "", 0, 0, 5000, 5000, false},
		{"fsync", "/d/f", "", 0, 0, 0, 0, false},
		{"close", "/d/f", "", 0, 0, 0, 0, false},
		{"stat", "/d/f", "", 0, 0, 0, 0, false},
		{"readdir", "/d", "", 0, 0, 0, 0, false},
		{"open", "/d/f", "", 0, 0, 0, 0, false},
		{"read", "/d/f", "", 0, 200000, 200000, 112200, false},
		{"read", "/d/f", "", 0, 312200, 4096, 0, false},
		{"close", "/d/f", "", 0, 0, 0, 0, false},
		{"rename", "/d/f", "/d/g", 0, 0, 0, 0, false},
		{"stat", "/d/f", "", 0, 0, 0, 0, true},
		{"open", "/d/f", "", 0, 0, 0, 0, true},
		{"unlink", "/d/g", "", 0, 0, 0, 0, false},
		{"rmdir", "/d", "", 0, 0, 0, 0, false},
		{"readdir", "/d", "", 0, 0, 0, 0, true},
	}
	var got []ev
	for _, e := range r.ops {
		if e.Tenant != "t" {
			t.Errorf("op %s recorded for tenant %q", e.Op, e.Tenant)
		}
		got = append(got, ev{e.Op, e.Path, e.Path2, e.Flags, e.Offset, e.Len, e.Bytes, e.Err})
	}
	if !slices.Equal(got, want) {
		t.Errorf("op events\n got %v\nwant %v", got, want)
	}
}
