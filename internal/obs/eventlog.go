package obs

import "time"

// chunkBytes is the size of one chunk of an eventLog.
const chunkBytes = 64 << 10

// maxRecBytes bounds one encoded record: a head and two 32-bit fields
// of at most five varint bytes each and two 64-bit values of at most
// ten.
const maxRecBytes = 3*5 + 2*10

// The kinds of record, in the low two bits of a record's head.
const (
	// kindWait is a wait: its span row, site and holder tenant.
	kindWait = iota
	// kindCore is a core slice alone: its core and accts row.
	kindCore
	// kindSlice is a CPU slice and the "run" wait of the span its
	// process served: its core, accts row and span row. It is two
	// events, a CoreEvent and a WaitEvent, and two kept records.
	kindSlice
	// kindCross is a span slice: its span row and layer.
	kindCross
	numKinds
)

// rec is one record of an eventLog, decoded: its kind, the name row its
// kind gives it (a site, an accts row or a layer), the span row, core
// and holder tenant its kind has, and the interval [start, start+dur).
type rec struct {
	kind       uint8
	name       uint32
	row        uint32
	core       uint32
	holder     uint32
	start, dur time.Duration
}

// The fields each kind of record carries besides its head and interval.
func hasRow(kind uint8) bool    { return kind != kindCore }
func hasCore(kind uint8) bool   { return kind == kindCore || kind == kindSlice }
func hasHolder(kind uint8) bool { return kind == kindWait }

// codec is the delta state of one pass over a log: the last span row
// and core a record carried, and the previous record's end.
type codec struct {
	row, core uint32
	end       time.Duration
}

// eventLog is an append-only log of records packed as varints into
// fixed-size byte chunks. A record is its head (its name shifted past
// its kind), then the fields its kind carries: its core and its span
// row each as a zigzag delta against the last record's that carried
// one, its holder tenant; then its end (start+dur) as a zigzag delta
// against the previous record's end, and its duration. Every caller
// records at the clock, so the end delta is small and often 0, and
// most durations are short. The arithmetic wraps, so any field values
// round-trip exactly. A record never straddles two chunks: one that
// does not fit starts the next chunk, so a full chunk is never copied
// or grown and the log holds at most one partly filled chunk.
type eventLog struct {
	chunks [][]byte
	n      [numKinds]int // records appended, by kind
	enc    codec         // state after the last append
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
func (l *eventLog) encode(r rec, b *[maxRecBytes]byte) int {
	end := r.start + r.dur
	i := putUvarint(b, 0, uint64(r.name)<<2|uint64(r.kind))
	if hasCore(r.kind) {
		i = putUvarint(b, i, zigzag(int64(int32(r.core-l.enc.core))))
		l.enc.core = r.core
	}
	if hasRow(r.kind) {
		i = putUvarint(b, i, zigzag(int64(int32(r.row-l.enc.row))))
		l.enc.row = r.row
	}
	if hasHolder(r.kind) {
		i = putUvarint(b, i, uint64(r.holder))
	}
	i = putUvarint(b, i, zigzag(int64(end-l.enc.end)))
	i = putUvarint(b, i, uint64(r.dur))
	l.enc.end = end
	return i
}

func (l *eventLog) push(r rec) {
	l.n[r.kind]++
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

// cursor is a read position in a log: the next record to decode starts
// at chunks[ci][off], and dec is the state before it.
type cursor struct {
	ci, off int
	dec     codec
}

// next decodes the record at c and advances c past it. A record must
// be there.
func (l *eventLog) next(c *cursor) rec {
	if c.off == len(l.chunks[c.ci]) {
		c.ci, c.off = c.ci+1, 0
	}
	b, i := l.chunks[c.ci], c.off
	var r rec
	var u uint64
	u, i = uvarint(b, i)
	r.kind, r.name = uint8(u&3), uint32(u>>2)
	if hasCore(r.kind) {
		u, i = uvarint(b, i)
		c.dec.core += uint32(unzigzag(u))
		r.core = c.dec.core
	}
	if hasRow(r.kind) {
		u, i = uvarint(b, i)
		c.dec.row += uint32(unzigzag(u))
		r.row = c.dec.row
	}
	if hasHolder(r.kind) {
		u, i = uvarint(b, i)
		r.holder = uint32(u)
	}
	u, i = uvarint(b, i)
	c.dec.end += time.Duration(unzigzag(u))
	u, i = uvarint(b, i)
	r.dur = time.Duration(u)
	r.start = c.dec.end - r.dur
	c.off = i
	return r
}

// view is the wide events E one reader builds from a log, one per
// record of the kinds it reads, in order. The log only grows and a
// record never changes, so the view is current up to its length, and
// all extends it from its own cursor.
type view[E any] struct {
	at     cursor
	events []E
}

// all returns the n events that wide builds from l's records, in
// append order, nil when n is 0; wide reports false for a record of a
// kind the view does not read. The first read builds the view in one
// exactly sized slice; a read after further appends decodes and builds
// only the events appended since. Its capacity equals its length, so a
// caller's append never writes into the view.
func (v *view[E]) all(l *eventLog, n int, wide func(rec) (E, bool)) []E {
	if v.events == nil && n > 0 {
		v.events = make([]E, 0, n)
	}
	for len(v.events) < n {
		if e, ok := wide(l.next(&v.at)); ok {
			v.events = append(v.events, e)
		}
	}
	return v.events[:n:n]
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
