package des

// FIFO is a first-in first-out queue on a growable ring buffer. The model's
// queues (CPU ready queue, network channel queue, pipe buffers, blocked
// writers, daemon relay queue) often alternate between empty and a few
// items; popping with q = q[1:] would discard the backing array's front
// and force a reallocation on the next push after a drain, while the ring
// reuses its storage, so a queue that has reached its peak length never
// allocates again. The zero value is an empty queue ready to use.
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

// grow doubles the ring (to 4 slots from empty), unwrapping the queued
// items to the front of the new storage.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
