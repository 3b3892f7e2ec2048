package obs

import "time"

// chunkBytes is the size of one chunk of an eventLog.
const chunkBytes = 64 << 10

// maxRecBytes bounds one encoded record: three 32-bit fields of at most
// five varint bytes each and two 64-bit values of at most ten.
const maxRecBytes = 3*5 + 2*10

// rec is one record of an eventLog, decoded: up to three small fields
// (a span-table row or a core, then a site, account or layer, then a
// holder tenant) and the interval [start, start+dur).
type rec struct {
	a, b, c    uint32
	start, dur time.Duration
}

// codec is the delta state of one pass over a log: the previous
// record's first field and end.
type codec struct {
	a   uint32
	end time.Duration
}

// eventLog is an append-only log of records packed as varints into
// fixed-size byte chunks, read as wide events E. A record is its first
// field as a zigzag delta against the previous record's, the other
// fields (b, and c when three is set), its end (start+dur) as a zigzag
// delta against the previous record's end, and its duration. Every
// caller records at the clock, so the end delta is small and often 0,
// and most durations are short. The arithmetic wraps, so any field
// values round-trip exactly. A record never straddles two chunks: one
// that does not fit starts the next chunk, so a full chunk is never
// copied or grown and the log holds at most one partly filled chunk.
type eventLog[E any] struct {
	three  bool // records carry c
	chunks [][]byte
	n      int   // records appended
	enc    codec // state after the last append
	// The read cursor: the next record to decode starts at
	// chunks[ci][off], and dec is the state before it.
	ci, off int
	dec     codec
	// view holds the wide events built by all, one per record, in
	// order. The log only grows and a record never changes, so the
	// view is current up to its length and all extends it from there.
	view []E
}

// zigzag maps a signed delta to an unsigned varint value, small for
// deltas near zero of either sign.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putUvarint writes v at b[i:] and returns the index past it.
func putUvarint(b *[maxRecBytes]byte, i int, v uint64) int {
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}

// uvarint reads the varint at b[i:] and returns it and the index past it.
func uvarint(b []byte, i int) (uint64, int) {
	var v uint64
	for s := uint(0); ; s += 7 {
		c := b[i]
		i++
		v |= uint64(c&0x7f) << s
		if c < 0x80 {
			return v, i
		}
	}
}

// encode packs r into b after the last appended record and returns its
// length.
func (l *eventLog[E]) encode(r rec, b *[maxRecBytes]byte) int {
	end := r.start + r.dur
	i := putUvarint(b, 0, zigzag(int64(int32(r.a-l.enc.a))))
	i = putUvarint(b, i, uint64(r.b))
	if l.three {
		i = putUvarint(b, i, uint64(r.c))
	}
	i = putUvarint(b, i, zigzag(int64(end-l.enc.end)))
	i = putUvarint(b, i, uint64(r.dur))
	l.enc = codec{a: r.a, end: end}
	return i
}

func (l *eventLog[E]) push(r rec) {
	l.n++
	last := len(l.chunks) - 1
	if last >= 0 {
		if c := l.chunks[last]; chunkBytes-len(c) >= maxRecBytes {
			// Room for any record: encode in place.
			n := l.encode(r, (*[maxRecBytes]byte)(c[len(c):len(c)+maxRecBytes]))
			l.chunks[last] = c[:len(c)+n]
			return
		}
	}
	// Near a chunk's end, encode aside: the record goes in if it fits,
	// exactly filling the chunk perhaps, or starts the next one.
	var b [maxRecBytes]byte
	n := l.encode(r, &b)
	if last < 0 || len(l.chunks[last])+n > chunkBytes {
		l.chunks = append(l.chunks, make([]byte, 0, chunkBytes))
		last++
	}
	l.chunks[last] = append(l.chunks[last], b[:n]...)
}

// next decodes the record at the read cursor and advances it. A record
// must be there.
func (l *eventLog[E]) next() rec {
	if l.off == len(l.chunks[l.ci]) {
		l.ci, l.off = l.ci+1, 0
	}
	b, i := l.chunks[l.ci], l.off
	var r rec
	var u uint64
	u, i = uvarint(b, i)
	r.a = l.dec.a + uint32(unzigzag(u))
	u, i = uvarint(b, i)
	r.b = uint32(u)
	if l.three {
		u, i = uvarint(b, i)
		r.c = uint32(u)
	}
	u, i = uvarint(b, i)
	end := l.dec.end + time.Duration(unzigzag(u))
	u, i = uvarint(b, i)
	r.dur = time.Duration(u)
	r.start = end - r.dur
	l.dec, l.off = codec{a: r.a, end: end}, i
	return r
}

// all returns the events in append order, each built from its record
// by wide, nil when the log is empty. The first read builds the view in
// one exactly sized slice; a read after further appends decodes and
// builds only the events appended since. Its capacity equals its
// length, so a caller's append never writes into the view.
func (l *eventLog[E]) all(wide func(rec) E) []E {
	if l.view == nil && l.n > 0 {
		l.view = make([]E, 0, l.n)
	}
	for len(l.view) < l.n {
		l.view = append(l.view, wide(l.next()))
	}
	return l.view[:l.n:l.n]
}

// spanChunkLen is the number of rows one chunk of a spanTable holds.
const spanChunkLen = 1 << 12

// spanTable is the recorder's table of span rows, kept in fixed-size
// chunks that are never copied or grown. Decoding a record reads the
// row its record names, in any order, so the rows stay fixed-size.
type spanTable struct {
	chunks []*[spanChunkLen]spanRow // row i is chunks[i/spanChunkLen][i%spanChunkLen]
	n      int
}

func (t *spanTable) push(row spanRow) {
	i := t.n % spanChunkLen
	if i == 0 {
		t.chunks = append(t.chunks, new([spanChunkLen]spanRow))
	}
	t.chunks[len(t.chunks)-1][i] = row
	t.n++
}

// at returns row i, which must be below n.
func (t *spanTable) at(i int) *spanRow {
	return &t.chunks[i/spanChunkLen][i%spanChunkLen]
}
