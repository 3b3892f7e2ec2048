package cacherun

import (
	"repro/internal/cache"
	"repro/internal/extent"
	"repro/internal/obs"
	"repro/internal/vfsapi"
)

// Writeback is the write-back both clients share over their Steps
// table, run in the writing process: the flusher's pass (Flush), a
// file's drain (Drain; Sync adds the size push) and SyncAll, all over
// one batch step. What differs between the clients is carried as the
// values below and the Store's methods.
type Writeback[X any] struct {
	*Steps[X]
	Store        Store[X]
	Crashed      *bool          // the client crashed: a batch in flight stays off Written
	Background   func() int64   // the dirty total at which the flusher is due
	Rec          **obs.Recorder // if set, records each flusher pass as a writeback span
	Tenant       string         // of the span: whose dirty data recruited the flusher
	MarkFlushing bool           // a flusher marks its file Flushing: the next takes another
	// The pop locks of a flusher's batch and of a drain's; one with no
	// Name reports its wait to no span.
	FlushPop, DrainPop Lock
}

// Store is what each client does its own way in write-back.
type Store[X any] interface {
	Prepare(ctx vfsapi.Ctx, f *cache.File[X], n int64) // readies a flusher's popped n bytes
	StoreExtent(ctx vfsapi.Ctx, f *cache.File[X], e extent.Extent) error
	Flushed(total, sent int64, err error)      // counts a flusher's batch, sent of it stored or tried
	PushSize(ctx vfsapi.Ctx, f *cache.File[X]) // to the MDS or the store
}

// Flush is one flusher pass: while write-back is due, it stores 1 MiB
// batches of the longest-dirty file, pushing the size of each file it
// cleans, until a crash. It reports whether it found a dirty file, so
// that an idle flusher backs off.
func (w *Writeback[X]) Flush(ctx vfsapi.Ctx) bool {
	var sp *obs.Span
	var sc obs.Scope
	var passTotal int64
	progressed := false
	for w.Cache.Due(w.Background(), ctx.P.Now(), w.Params.DirtyExpire) {
		f := w.Cache.NextDirty()
		if f == nil {
			break
		}
		if sp == nil && *w.Rec != nil {
			sp = (*w.Rec).StartSpan(ctx.P.ID(), w.Tenant, "writeback")
			sc = sp.Enter(obs.LayerWriteback)
			ctx.Span = sp
		}
		progressed = true
		f.Flushing = w.MarkFlushing
		total, sent, err := w.batch(ctx, f, true)
		f.Flushing = false
		w.Store.Flushed(total, sent, err)
		if err == vfsapi.ErrCrashed {
			break
		}
		passTotal += total
		if f.Dirty.Len() == 0 && !f.Unlinked {
			w.Store.PushSize(ctx, f)
		}
		w.ThrottleQ.Broadcast()
	}
	sc.Exit()
	sp.End(passTotal, nil)
	return progressed
}

// Drain stores f's dirty data in 4 MiB batches until f is clean, waking
// throttled writers after each, and stops at the first error:
// vfsapi.ErrCrashed once the client crashed, else a failed store.
func (w *Writeback[X]) Drain(ctx vfsapi.Ctx, f *cache.File[X]) error {
	for f.Dirty.Len() > 0 {
		_, _, err := w.batch(ctx, f, false)
		if err == vfsapi.ErrCrashed {
			return err
		}
		w.ThrottleQ.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// Sync drains f and, unless the drain failed, pushes f's size.
func (w *Writeback[X]) Sync(ctx vfsapi.Ctx, f *cache.File[X]) error {
	err := w.Drain(ctx, f)
	if err == nil {
		w.Store.PushSize(ctx, f)
	}
	return err
}

// SyncAll syncs every dirty file, the quiesce step of container
// migration, and stops at the first that fails.
func (w *Writeback[X]) SyncAll(ctx vfsapi.Ctx) {
	for f := w.Cache.NextDirty(); f != nil; f = w.Cache.NextDirty() {
		if w.Sync(ctx, f) != nil {
			return
		}
	}
}

// batch pops a flusher's 1 MiB or a drain's 4 MiB of f's dirty data
// under its pop lock, lets a flusher prepare it, and stores it extent by
// extent up to the first failure; an unlinked file's data is dropped.
// Unless the client crashed meanwhile, the whole batch leaves the dirty
// total: a failed extent is lost, as a crash loses it. It returns the
// bytes popped and sent, and vfsapi.ErrCrashed after a crash or else
// the store's error.
func (w *Writeback[X]) batch(ctx vfsapi.Ctx, f *cache.File[X], flusher bool) (total, sent int64, err error) {
	pop, max := &w.DrainPop, int64(4<<20)
	if flusher {
		pop, max = &w.FlushPop, 1<<20
	}
	span := ctx.Span
	if pop.Name == "" {
		span = nil
	}
	ctx.T.LockedChain(ctx.P, pop.M, span, pop.Name, pop.Hold)
	var buf [4]extent.Extent
	exts, total := f.Dirty.PopFirst(max, buf[:0])
	pop.M.Unlock(ctx.P)
	if flusher {
		w.Store.Prepare(ctx, f, total)
	}
	for _, e := range exts {
		if f.Unlinked {
			continue
		}
		err = w.Store.StoreExtent(ctx, f, e)
		sent += e.Len
		if err != nil {
			break
		}
	}
	// The crash already reset the dirty total of the incarnation this
	// batch came from: subtracting it again would drive it negative.
	if *w.Crashed || w.Cache.Stale(f) {
		return total, sent, vfsapi.ErrCrashed
	}
	w.Cache.Written(f, total)
	return total, sent, err
}
