package des

// FIFO is a first-in first-out queue on a growable ring buffer. The model's
// queues (CPU ready queue, network channel queue, pipe buffers, blocked
// writers, daemon relay queue) often alternate between empty and a few
// items; popping with q = q[1:] would discard the backing array's front
// and force a reallocation on the next push after a drain, while the ring
// reuses its storage, so within one run a queue that has reached its peak
// length never allocates again. Across runs, a ring outgrown by Push or
// given up by Release goes to a process-wide pool keyed by element type
// and length, and a growing queue takes its next ring from there, so a
// sweep of runs reuses the rings earlier runs grew. The zero value is an
// empty queue ready to use.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int // index of the oldest item
	n    int // items queued
}

// Len returns the number of queued items.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail, doubling the ring when it is full.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest item. The vacated slot is zeroed so
// the queue does not keep popped pointers reachable. Popping an empty
// queue is a caller bug and panics.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("des: Pop on empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// At returns a pointer to the i-th oldest item (0 is the head), valid
// until the next Push or Pop. It panics when i is out of range.
func (q *FIFO[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("des: FIFO index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// Clear empties the queue, zeroing every slot and keeping the storage.
func (q *FIFO[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// Release empties the queue and gives its ring to the pool, leaving the
// zero value: a queue that holds no pooled storage and stays ready to use.
func (q *FIFO[T]) Release() {
	putArray(q.buf)
	q.buf, q.head, q.n = nil, 0, 0
}

// grow doubles the ring (to 4 slots from empty), unwrapping the queued
// items to the front of a ring from the pool and giving the old ring back.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := getArray[T](size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	putArray(q.buf)
	q.buf, q.head = buf, 0
}
