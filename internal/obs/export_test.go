package obs

// LogBytes returns the records r's three event logs hold and the chunk
// bytes they take.
func LogBytes(r *Recorder) (records, bytes int) {
	chunks := len(r.slices.chunks) + len(r.waits.chunks) + len(r.cores.chunks)
	return r.slices.n + r.waits.n + r.cores.n, chunks * chunkBytes
}
