package obs

// LogBytes returns the events r's two event logs hold, a CPU slice
// with its run wait counted as two, and the chunk bytes they take.
func LogBytes(r *Recorder) (events, bytes int) {
	n := r.slices.n[kindCross] + r.waits.n[kindWait] + r.waits.n[kindCore] + 2*r.waits.n[kindSlice]
	return n, (len(r.slices.chunks) + len(r.waits.chunks)) * chunkBytes
}
