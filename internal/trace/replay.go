package trace

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vfsapi"
)

// Binding tells the replayer how to reissue one tenant's operations:
// against which (mounted) filesystem, and on threads of which
// container. The target testbed's configuration is free to differ
// from the recorded one — that is the point.
type Binding struct {
	FS        vfsapi.FileSystem
	NewThread func() *cpu.Thread
}

// ReplayStats summarizes one replay.
type ReplayStats struct {
	// Ops counts operations reissued, Errors the subset that failed
	// (including admission sheds), Skipped operations dropped because
	// their tenant had no binding.
	Ops     int
	Errors  int
	Skipped int
}

// Replay reissues the trace against the bound filesystems and returns
// the re-recorded trace of what actually happened (same canonical
// form as a live recording) plus summary stats.
//
// Each stream runs as its own simulated process, spawned in stream-id
// order; within a stream ops are strictly sequential. An op is issued
// at its recorded virtual time, or immediately after its stream
// predecessor completes when the target configuration is slower than
// the recorded one — so replaying under the recorded configuration
// reproduces the recorded schedule byte-identically, while a slower
// configuration shows up as issue-time drift and latency deltas, never
// as reordering (see Trace.OpSequence).
//
// Handles are tracked per stream by path: a recorded open binds the
// path, later ops on the path reuse the handle, close releases it. An
// op on a path with no live handle (a trace cut mid-stream) opens one
// on demand. Errors are counted, never fatal: a shed or failed op in
// the original run is reissued like any other.
//
// p is the calling process; Replay blocks it until every stream
// finishes. label names the replayed configuration in the returned
// trace.
func Replay(p *sim.Proc, eng *sim.Engine, t *Trace, label string, bind func(tenant string) (Binding, bool)) (*Trace, *ReplayStats) {
	// Recorded issue times are relative to the recording's capture
	// start; re-anchor them at the current virtual time, and express
	// the returned trace relative to the same epoch so it compares
	// directly against the input.
	epoch := eng.Now()
	stats := &ReplayStats{}
	byStream := map[int][]int{}
	for i := range t.Ops {
		byStream[t.Ops[i].Stream] = append(byStream[t.Ops[i].Stream], i)
	}
	ids := make([]int, 0, len(byStream))
	for id := range byStream {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	results := map[int64][]Op{}
	pending := 0
	q := sim.NewWaitQueue(eng, "trace-replay")
	for _, id := range ids {
		id, opIdx := id, byStream[id]
		pending++
		eng.Go(fmt.Sprintf("replay-s%d", id), func(sp *sim.Proc) {
			results[int64(id)] = replayStream(sp, eng, epoch, t, opIdx, bind, stats)
			pending--
			if pending == 0 {
				q.Broadcast()
			}
		})
	}
	for pending > 0 {
		q.Wait(p)
	}
	return assemble(label, results), stats
}

// replayStream reissues one stream's ops sequentially and returns the
// re-recorded ops.
func replayStream(sp *sim.Proc, eng *sim.Engine, epoch time.Duration, t *Trace, opIdx []int, bind func(string) (Binding, bool), stats *ReplayStats) []Op {
	handles := map[string]vfsapi.Handle{}
	threads := map[string]*cpu.Thread{}
	out := make([]Op, 0, len(opIdx))
	for _, i := range opIdx {
		op := &t.Ops[i]
		b, ok := bind(op.Tenant)
		if !ok {
			stats.Skipped++
			continue
		}
		th := threads[op.Tenant]
		if th == nil {
			th = b.NewThread()
			threads[op.Tenant] = th
		}
		if d := epoch + op.Issue - eng.Now(); d > 0 {
			sp.Sleep(d)
		}
		ctx := vfsapi.Ctx{P: sp, T: th}
		issue := eng.Now()
		err := reissue(ctx, b.FS, op, handles)
		done := eng.Now()
		stats.Ops++
		if err != nil {
			stats.Errors++
		}
		out = append(out, Op{
			Tenant: op.Tenant, Kind: op.Kind,
			Path: op.Path, Path2: op.Path2, Flags: op.Flags,
			Offset: op.Offset, Len: op.Len,
			Issue: issue - epoch, Latency: done - issue, Err: err != nil,
		})
	}
	return out
}

// reissue executes one recorded op against fs, maintaining the
// stream's handle table: a handle op on a path with no live handle
// opens one, and close releases it.
func reissue(ctx vfsapi.Ctx, fs vfsapi.FileSystem, op *Op, handles map[string]vfsapi.Handle) error {
	kind, ok := vfsapi.ParseKind(op.Kind)
	if !ok {
		return fmt.Errorf("trace: unknown op kind %q", op.Kind)
	}
	c := vfsapi.Call{Kind: kind, FS: fs, Path: op.Path, Path2: op.Path2,
		Flags: vfsapi.OpenFlag(op.Flags), Off: op.Offset, N: op.Len}
	if kind.OnHandle() {
		h, ok := handles[op.Path]
		switch {
		case kind == vfsapi.OpClose:
			if !ok {
				return nil
			}
			delete(handles, op.Path)
		case !ok:
			flags := vfsapi.WRONLY | vfsapi.CREATE
			if kind == vfsapi.OpRead {
				flags = vfsapi.RDONLY
			}
			var err error
			if h, err = fs.Open(ctx, op.Path, flags); err != nil {
				return err
			}
			handles[op.Path] = h
		}
		c.H = h
	}
	r, err := c.Do(ctx)
	if kind == vfsapi.OpOpen && err == nil {
		handles[op.Path] = r.H
	}
	return err
}
