package obs

// chunkLen is the number of events one chunk of an eventLog holds.
const chunkLen = 1 << 12

// eventLog is an append-only sequence of events kept in fixed-size
// chunks. A full chunk is never copied or grown, so appending N events
// costs ⌈N/chunkLen⌉ chunk allocations (plus the rare growth of the
// chunk index), allocates only what it keeps, and the log never holds
// more than one partly filled chunk.
type eventLog[T any] struct {
	chunks []*[chunkLen]T // event i is chunks[i/chunkLen][i%chunkLen]
	n      int
	// flat is the memoized result of all. It is current while its
	// length equals n: the log only grows, so equal lengths mean equal
	// contents.
	flat []T
}

func (l *eventLog[T]) push(e T) {
	i := l.n % chunkLen
	if i == 0 {
		l.chunks = append(l.chunks, new([chunkLen]T))
	}
	l.chunks[len(l.chunks)-1][i] = e
	l.n++
}

// all returns the events in append order as one slice, nil when the
// log is empty. The slice is built on the first read after an append
// and shared by later reads; a log of one chunk returns that chunk
// without copying. Its capacity equals its length, so a caller's append
// never writes into the log.
func (l *eventLog[T]) all() []T {
	if len(l.flat) == l.n {
		return l.flat
	}
	if len(l.chunks) == 1 {
		l.flat = l.chunks[0][:l.n:l.n]
		return l.flat
	}
	l.flat = nil // drop the stale copy before building the next
	flat := make([]T, 0, l.n)
	for _, c := range l.chunks {
		flat = append(flat, c[:min(chunkLen, l.n-len(flat))]...)
	}
	l.flat = flat
	return flat
}
