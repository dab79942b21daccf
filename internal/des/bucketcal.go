package des

// BucketCalendar is a calendar-queue future event list (Brown 1988, the
// structure behind PARSIR-style O(1) schedulers): events hash into
// time-ordered buckets of width `width`, and the dequeue scan walks the
// buckets of the current "year" in order. Push and Pop are O(1) amortized —
// the self-resizing policy keeps the average bucket near one pending event —
// while the binary heap pays O(log n) per operation plus a cache-hostile
// sift on every mutation.
//
// The calendar preserves the engine's exact total order: events pop in
// strictly increasing (time, seq), byte-identical to HeapCalendar (proven by
// TestCalendarEquivalence, FuzzCalendarDifferential, and the core-level
// differential tests). Cancel semantics are untouched — cancellation is a
// flag the Simulator checks at dispatch; canceled events flow through the
// buckets like any other.
//
// Each bucket is a list linked through the events' own next fields in
// (time, seq) order, so buckets own no storage and a Push that does not
// resize allocates nothing. A pop unlinks the head in O(1) however many
// events share the bucket; synchronized sampling timers put k same-time
// events into one bucket per tick, each a tail append. A resize relinks
// the events into the new array and keeps the old one as a spare, so
// grow/shrink oscillation does not thrash the allocator.
type BucketCalendar struct {
	buckets []bucket
	mask    int64   // len(buckets)-1; bucket count is a power of two
	width   float64 // microseconds of simulated time per bucket
	n       int

	// cur is the dequeue scan position as a *virtual* bucket index
	// (floor(time/width), not reduced modulo the bucket count). Invariant:
	// cur <= bslot(e) for every queued event e, maintained by pulling cur
	// back on Push. Using the integer virtual index for the qualification
	// test (head.bslot <= cur) instead of a float bucket-top comparison
	// removes any chance of rounding disagreement between the Push mapping
	// and the Pop window.
	cur int64

	// peeked caches the minimum event located by Peek so the Pop that
	// Simulator.Run issues right after costs O(1). Invalidated by resize
	// and by removal; a Push that beats the cached minimum replaces it
	// (the new event is necessarily its bucket's head).
	peeked *Event

	// spare retains the bucket array released by the last resize so the
	// next resize to that size reuses it instead of reallocating.
	spare []bucket
}

// bucket holds one calendar slot's events as a list linked through
// Event.next in (time, seq) order; an empty bucket has head == tail == nil.
type bucket struct {
	head, tail *Event
}

const (
	// minBucketCount is the smallest bucket array; small populations
	// shouldn't pay year-scan overhead over more than a handful of slots.
	minBucketCount = 16
	// initialBucketWidth (µs) only matters until the first resize
	// recalibrates from the observed event span; 256 µs suits the ROCC
	// model's sub-millisecond burst scale.
	initialBucketWidth = 256
	// minBucketWidth guards the virtual index against float blowup from a
	// degenerate gap estimate (sub-nanosecond at microsecond time units).
	minBucketWidth = 1e-9
	// widthSample is how many head events the resize samples to estimate
	// local event density (Brown's newwidth rule): the bucket width follows
	// the average gap near the head of the queue, not the global span, so a
	// far-future tail cannot widen buckets under a dense near-term cluster.
	widthSample = 32
)

// NewBucketCalendar returns an empty calendar queue.
func NewBucketCalendar() *BucketCalendar {
	return &BucketCalendar{
		buckets: make([]bucket, minBucketCount),
		mask:    minBucketCount - 1,
		width:   initialBucketWidth,
	}
}

// Len implements Calendar.
func (c *BucketCalendar) Len() int { return c.n }

// eventAfter reports whether a sorts after b in (time, seq) order.
func eventAfter(a, b *Event) bool {
	if a.time != b.time {
		return a.time > b.time
	}
	return a.seq > b.seq
}

// Push implements Calendar.
func (c *BucketCalendar) Push(e *Event) {
	vb := int64(e.time / c.width)
	e.bslot = vb
	if c.n == 0 || vb < c.cur {
		// Keep the scan invariant (cur <= every queued bslot). An empty
		// calendar jumps forward too, so a sparse schedule doesn't force
		// the next Pop to scan from a long-gone year.
		c.cur = vb
	}
	c.insert(e)
	c.n++
	if c.peeked != nil && eventAfter(c.peeked, e) {
		c.peeked = e
	}
	if c.n > 2*len(c.buckets) {
		c.resize(2 * len(c.buckets))
	}
}

// insert links e into its bucket in (time, seq) order: after the tail
// when nothing queued sorts after it (a same-time burst arrives in seq
// order, so each of its events lands here), before the head when it sorts
// before everything, and otherwise by a walk from the head.
func (c *BucketCalendar) insert(e *Event) {
	b := &c.buckets[e.bslot&c.mask]
	switch {
	case b.head == nil:
		e.next = nil
		b.head, b.tail = e, e
	case !eventAfter(b.tail, e):
		e.next = nil
		b.tail.next = e
		b.tail = e
	case eventAfter(b.head, e):
		e.next = b.head
		b.head = e
	default:
		// head < e < tail, so the walk stops before running off the end.
		p := b.head
		for !eventAfter(p.next, e) {
			p = p.next
		}
		e.next = p.next
		p.next = e
	}
}

// Peek implements Calendar: the next event without removing it.
func (c *BucketCalendar) Peek() *Event { return c.locateMin() }

// Pop implements Calendar.
func (c *BucketCalendar) Pop() *Event {
	e := c.locateMin()
	if e == nil {
		return nil
	}
	c.removeHead(e)
	return e
}

// locateMin finds (and caches) the earliest queued event. The year scan
// starts at cur and visits each bucket at most once; a bucket's head is its
// minimum, and the head qualifies when its virtual index has been reached.
// If a whole year turns up nothing the queue is sparse relative to the
// bucket width, so one direct O(buckets) search finds the minimum and the
// scan position jumps straight to it.
func (c *BucketCalendar) locateMin() *Event {
	if c.n == 0 {
		return nil
	}
	if c.peeked != nil {
		return c.peeked
	}
	for i := 0; i < len(c.buckets); i++ {
		if h := c.buckets[c.cur&c.mask].head; h != nil && h.bslot <= c.cur {
			c.peeked = h
			return h
		}
		c.cur++
	}
	var min *Event
	for i := range c.buckets {
		if h := c.buckets[i].head; h != nil && (min == nil || eventAfter(min, h)) {
			min = h
		}
	}
	c.cur = min.bslot
	c.peeked = min
	return min
}

// removeHead unlinks e, which locateMin guarantees is the head of its
// bucket. The link is cleared so a recycled event never carries a stale
// successor.
func (c *BucketCalendar) removeHead(e *Event) {
	b := &c.buckets[e.bslot&c.mask]
	b.head = e.next
	if b.head == nil {
		b.tail = nil
	}
	e.next = nil
	c.n--
	c.peeked = nil
	e.index = -1
	if len(c.buckets) > minBucketCount && c.n < len(c.buckets)/2 {
		c.resize(len(c.buckets) / 2)
	}
}

// resize rebuilds the calendar with nb buckets (a power of two) and a
// width recalibrated to three times the average inter-event gap among the
// widthSample earliest queued events — Brown's rule of thumb, applied to
// the head of the queue. Sampling head density rather than the global
// span keeps the current year's buckets near one event each even when a
// sparse far-future tail coexists with a dense near-term cluster (burst
// and bimodal schedules); tail events just wrap modulo the bucket count
// and fail the year-scan qualification test until their year arrives.
func (c *BucketCalendar) resize(nb int) {
	old := c.buckets

	// head collects the widthSample smallest event times, sorted ascending
	// (insertion into a fixed array; the common case rejects in one
	// comparison against the current worst).
	var head [widthSample]float64
	hn := 0
	for i := range old {
		for e := old[i].head; e != nil; e = e.next {
			if hn == len(head) && e.time >= head[hn-1] {
				continue
			}
			i := hn
			if hn < len(head) {
				hn++
			} else {
				i--
			}
			for i > 0 && head[i-1] > e.time {
				head[i] = head[i-1]
				i--
			}
			head[i] = e.time
		}
	}
	minT := 0.0
	if hn > 0 {
		minT = head[0]
	}
	if hn > 1 {
		if span := head[hn-1] - head[0]; span > 0 {
			w := 3 * span / float64(hn-1)
			if w < minBucketWidth {
				w = minBucketWidth
			}
			c.width = w
		}
	}

	if len(c.spare) == nb {
		c.buckets, c.spare = c.spare, nil
	} else {
		c.buckets = make([]bucket, nb)
	}
	c.mask = int64(nb - 1)
	c.peeked = nil
	c.cur = int64(minT / c.width)

	for i := range old {
		for e := old[i].head; e != nil; {
			next := e.next
			e.bslot = int64(e.time / c.width)
			c.insert(e)
			e = next
		}
	}
	clear(old)
	c.spare = old
}
