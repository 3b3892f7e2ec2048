package obs

// chunkLen is the number of records one chunk of an eventLog holds.
const chunkLen = 1 << 12

// chunked is an append-only sequence of records kept in fixed-size
// chunks. A full chunk is never copied or grown, so appending N records
// costs ⌈N/chunkLen⌉ chunk allocations (plus the rare growth of the
// chunk index), allocates only what it keeps, and the sequence never
// holds more than one partly filled chunk.
type chunked[R any] struct {
	chunks []*[chunkLen]R // record i is chunks[i/chunkLen][i%chunkLen]
	n      int
}

func (l *chunked[R]) push(rec R) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([chunkLen]R))
	}
	l.chunks[len(l.chunks)-1][i] = rec
	l.n++
}

// at returns record i, which must be below n.
func (l *chunked[R]) at(i int) *R {
	return &l.chunks[i/chunkLen][i%chunkLen]
}

// eventLog is a chunked log of compact records R, read as wide events
// E.
type eventLog[R, E any] struct {
	chunked[R]
	// view holds the wide events built by all, one per record, in
	// order. The log only grows and a record never changes, so the
	// view is current up to its length and all extends it from there.
	view []E
}

// all returns the events in append order, each built from its record
// by wide, nil when the log is empty. The first read builds the view in
// one exactly sized slice; a read after further appends builds only
// the events appended since. Its capacity equals its length, so a
// caller's append never writes into the view.
func (l *eventLog[R, E]) all(wide func(*R) E) []E {
	if l.view == nil && l.n > 0 {
		l.view = make([]E, 0, l.n)
	}
	for i := len(l.view); i < l.n; i++ {
		l.view = append(l.view, wide(l.at(i)))
	}
	return l.view[:l.n:l.n]
}
