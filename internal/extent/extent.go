// Package extent implements sets of disjoint byte ranges, the core
// bookkeeping structure of every cache in the simulation: the kernel
// page cache and the user-level client cache both track which parts of
// each file are resident (and which are dirty) as extent sets.
package extent

import "sort"

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
	merged := Extent{Off: mergedOff, Len: mergedEnd - mergedOff}
	s.ext = append(s.ext[:lo], append([]Extent{merged}, s.ext[hi:]...)...)
	return added
}

// Remove deletes [off, off+n) from the set, splitting extents as
// needed. It returns the number of bytes actually removed.
func (s *Set) Remove(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	end := off + n
	var out []Extent
	var removed int64
	for _, e := range s.ext {
		if e.End() <= off || e.Off >= end {
			out = append(out, e)
			continue
		}
		removed += overlap(e, Extent{Off: off, Len: n})
		if e.Off < off {
			out = append(out, Extent{Off: e.Off, Len: off - e.Off})
		}
		if e.End() > end {
			out = append(out, Extent{Off: end, Len: e.End() - end})
		}
	}
	s.ext = out
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

// Gaps returns the subranges of [off, off+n) NOT covered by the set —
// the cache misses a read must fetch.
func (s *Set) Gaps(off, n int64) []Extent {
	var gaps []Extent
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
			gaps = append(gaps, Extent{Off: cur, Len: e.Off - cur})
		}
		if e.End() > cur {
			cur = e.End()
		}
	}
	if cur < end {
		gaps = append(gaps, Extent{Off: cur, Len: end - cur})
	}
	return gaps
}

// PopFirst removes and returns up to max bytes from the lowest-offset
// extents, and their total (used by write-back draining dirty sets in
// file order).
func (s *Set) PopFirst(max int64) (out []Extent, taken int64) {
	for taken < max && len(s.ext) > 0 {
		e := s.ext[0]
		want := max - taken
		if e.Len <= want {
			out = append(out, e)
			taken += e.Len
			s.ext = s.ext[1:]
		} else {
			out = append(out, Extent{Off: e.Off, Len: want})
			s.ext[0] = Extent{Off: e.Off + want, Len: e.Len - want}
			taken += want
		}
	}
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
