// Package extent implements sets of disjoint byte ranges, the core
// bookkeeping structure of every cache in the simulation: the kernel
// page cache and the user-level client cache both track which parts of
// each file are resident (and which are dirty) as extent sets.
package extent

import (
	"slices"
	"sort"
)

// Extent is the half-open byte range [Off, Off+Len).
type Extent struct {
	Off int64
	Len int64
}

// End returns Off+Len.
func (e Extent) End() int64 { return e.Off + e.Len }

// Set is a collection of disjoint, sorted, coalesced extents. The zero
// value is an empty set ready for use.
type Set struct {
	ext []Extent
}

// Len returns the total bytes covered by the set.
func (s *Set) Len() int64 {
	var t int64
	for _, e := range s.ext {
		t += e.Len
	}
	return t
}

// Count returns the number of disjoint extents.
func (s *Set) Count() int { return len(s.ext) }

// Extents returns a copy of the extents in ascending order.
func (s *Set) Extents() []Extent {
	out := make([]Extent, len(s.ext))
	copy(out, s.ext)
	return out
}

// Insert adds [off, off+n) to the set, merging with any overlapping or
// adjacent extents. It returns the number of bytes newly covered.
func (s *Set) Insert(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	newExt := Extent{Off: off, Len: n}
	// Find the insertion window: all extents overlapping or adjacent.
	lo := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() >= off })
	hi := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].Off > newExt.End() })
	added := n
	mergedOff, mergedEnd := off, newExt.End()
	for _, e := range s.ext[lo:hi] {
		added -= overlap(e, newExt)
		if e.Off < mergedOff {
			mergedOff = e.Off
		}
		if e.End() > mergedEnd {
			mergedEnd = e.End()
		}
	}
	// Replace s.ext[lo:hi] by the merged extent in place.
	s.ext = slices.Replace(s.ext, lo, hi, Extent{Off: mergedOff, Len: mergedEnd - mergedOff})
	return added
}

// Remove deletes [off, off+n) from the set, splitting extents as
// needed. It returns the number of bytes actually removed.
func (s *Set) Remove(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	end := off + n
	// s.ext[lo:hi] are the extents overlapping [off, end); the first and
	// the last may keep a part outside it.
	lo := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].End() > off })
	hi := sort.Search(len(s.ext), func(i int) bool { return s.ext[i].Off >= end })
	if lo >= hi {
		return 0
	}
	var removed int64
	for _, e := range s.ext[lo:hi] {
		removed += overlap(e, Extent{Off: off, Len: n})
	}
	var keep [2]Extent
	k := 0
	if first := s.ext[lo]; first.Off < off {
		keep[k] = Extent{Off: first.Off, Len: off - first.Off}
		k++
	}
	if last := s.ext[hi-1]; last.End() > end {
		keep[k] = Extent{Off: end, Len: last.End() - end}
		k++
	}
	s.ext = slices.Replace(s.ext, lo, hi, keep[:k]...)
	return removed
}

// Covered returns how many bytes of [off, off+n) are in the set.
func (s *Set) Covered(off, n int64) int64 {
	var t int64
	probe := Extent{Off: off, Len: n}
	for _, e := range s.ext {
		if e.Off >= probe.End() {
			break
		}
		t += overlap(e, probe)
	}
	return t
}

// Contains reports whether [off, off+n) is fully covered.
func (s *Set) Contains(off, n int64) bool { return s.Covered(off, n) == n }

// FirstGap returns the first subrange of [off, off+n) NOT covered by
// the set, and false when the set covers all of it.
func (s *Set) FirstGap(off, n int64) (Extent, bool) {
	end := off + n
	cur := off
	for _, e := range s.ext {
		if e.End() <= cur {
			continue
		}
		if e.Off >= end {
			break
		}
		if e.Off > cur {
			return Extent{Off: cur, Len: e.Off - cur}, true
		}
		cur = e.End()
	}
	if cur < end {
		return Extent{Off: cur, Len: end - cur}, true
	}
	return Extent{}, false
}

// PopFirst removes up to max bytes from the lowest-offset extents,
// appends them to out and returns it with their total (used by
// write-back draining dirty sets in file order). The set keeps its
// storage, and a caller that passes a buffer of its own allocates
// nothing.
func (s *Set) PopFirst(max int64, out []Extent) ([]Extent, int64) {
	var taken int64
	k := 0 // whole extents taken
	for taken < max && k < len(s.ext) {
		e := s.ext[k]
		want := max - taken
		if e.Len <= want {
			out = append(out, e)
			taken += e.Len
			k++
		} else {
			out = append(out, Extent{Off: e.Off, Len: want})
			s.ext[k] = Extent{Off: e.Off + want, Len: e.Len - want}
			taken += want
		}
	}
	s.ext = slices.Delete(s.ext, 0, k)
	return out, taken
}

// Clear empties the set.
func (s *Set) Clear() { s.ext = nil }

func overlap(a, b Extent) int64 {
	lo := a.Off
	if b.Off > lo {
		lo = b.Off
	}
	hi := a.End()
	if b.End() < hi {
		hi = b.End()
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}
