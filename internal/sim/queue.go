package sim

// Queue is a FIFO ring for the wait queues of simulated primitives.
// Live entries are buf[head:]: removing the head advances head instead
// of shifting the slice, so a release is O(1) even under the
// multi-hundred-waiter i_mutex queues of Fig 1b, and the dead prefix is
// compacted lazily. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) { q.buf = append(q.buf, v) }

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th oldest entry; At(0) is the head.
func (q *Queue[T]) At(i int) T { return q.buf[q.head+i] }

// Remove takes out the i-th oldest entry and returns it, keeping the
// others in FIFO order. The entries ahead of it move up one slot and the
// head advances, so removing the head is O(1) and removing any other
// entry costs no more than the scan that found it.
func (q *Queue[T]) Remove(i int) T {
	i += q.head
	v := q.buf[i]
	copy(q.buf[q.head+1:i+1], q.buf[q.head:i])
	q.dropHead()
	return v
}

// Pop removes and returns the head entry.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.dropHead()
	return v
}

// dropHead advances past the head slot, whose entry has been taken out.
func (q *Queue[T]) dropHead() {
	var zero T
	q.buf[q.head] = zero // release the reference
	q.head++
	switch {
	case q.head == len(q.buf):
		// Queue drained: reuse the backing array from the start.
		q.buf = q.buf[:0]
		q.head = 0
	case q.head >= 64 && q.head*2 >= len(q.buf):
		// The dead prefix dominates a large backlog: compact once.
		// Amortized O(1) per removal since the prefix must regrow past
		// the live tail before the next compaction.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}
