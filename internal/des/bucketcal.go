package des

import (
	"math"
	"math/bits"
)

// BucketCalendar is a calendar-queue future event list (Brown 1988, the
// structure behind PARSIR-style O(1) schedulers): events hash into
// time-ordered buckets of width `width`, and the dequeue scan walks the
// buckets of the current "year" in order. Push and Pop are O(1) amortized,
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
// Buckets are kept sparse, so that nearly every Push lands in an empty
// bucket or after its bucket's tail. The calendar holds between 4 and 16
// buckets per pending event (grow above one event per 4 buckets, shrink
// below one per 16), and each resize sets the width to 3/8 of the mean gap
// between the earliest queued events. Brown's rule of three gaps per
// bucket at one bucket per event fills the buckets near the head with
// several events, out of time order whenever a synchronized sampling tick
// releases a burst of follow-up events, and each of those inserts walks
// the list. The narrow width keeps the year (bucket count × width) as
// long as under Brown's rule, so far-future events wrap no more often.
// Scanning the extra empty buckets costs nearly nothing: an occupancy
// bitmap, one bit per bucket, lets the year scan jump from one non-empty
// bucket to the next with a trailing-zero count.
//
// A width sampled at one resize can stop fitting a schedule whose
// population holds steady, so the calendar also resizes in place, to
// resample the width, when a year scan finds nothing and when the scan's
// passes over later-year heads and the insert walks' steps add up to more
// than the bucket count. Each such resize follows at least as much wasted
// work as it costs.
//
// Each bucket is a list linked through the events' own next and prev
// fields in (time, seq) order, with the head's prev pointing to the tail,
// so buckets own no storage and a Push that does not resize allocates
// nothing. A pop unlinks the head in O(1) however many events share the
// bucket; synchronized sampling timers put k same-time events into one
// bucket per tick, each a tail append or a one-step walk back from the
// tail. A resize relinks the events into the new array and keeps the old
// one as a spare, so grow/shrink oscillation does not thrash the
// allocator. The bucket, spare and bitmap arrays come from the
// process-wide array pools, and Release gives them back, so the next
// run's calendar grows into storage an earlier run already paid for.
//
// Memory: a bucket is one pointer (8 bytes on 64-bit hosts), so the
// array costs 32–128 bytes per pending event, 64 right after a resize.
// The spare array adds half or double that, and the bitmap 1/8 byte per
// bucket.
type BucketCalendar struct {
	buckets []*Event // bucket heads; nil for an empty bucket
	occ     []uint64 // occupancy bitmap: bit i is set while buckets[i] is non-empty
	mask    int64    // len(buckets)-1; bucket count is a power of two
	inv     float64  // 1/width in buckets per µs, so a time maps to its bucket with one multiply
	n       int

	// cur is the dequeue scan position as a *virtual* bucket index
	// (floor(time·inv), not reduced modulo the bucket count). Invariant:
	// cur <= bslot(e) for every queued event e, maintained by pulling cur
	// back on Push. Using the integer virtual index for the qualification
	// test (head.bslot <= cur) instead of a float bucket-top comparison
	// removes any chance of rounding disagreement between the Push mapping
	// and the Pop window. Once a scan has found the earliest event, cur
	// is its virtual index, so the next Peek or Pop finds it in cur's
	// bucket at once: no separate cache of the minimum is needed.
	cur int64

	// spare retains the bucket array released by the last resize so the
	// next resize to that size reuses it instead of reallocating.
	spare []*Event

	// misfit counts, since the last resize, the later-year heads the year
	// scan passed and the steps insert walks took: the work a width that
	// no longer fits the schedule costs. Once it exceeds the bucket count,
	// Push recalibrates the width in place.
	misfit int
}

const (
	// minBucketCount is the smallest bucket array; small populations
	// shouldn't pay year-scan overhead over more than a handful of slots.
	minBucketCount = 16
	// growShift and shrinkShift set the density band: the array doubles
	// when n > len>>growShift and halves when n < len>>shrinkShift, so it
	// holds 4 to 16 buckets per pending event, 8 right after a resize.
	growShift   = 2
	shrinkShift = 4
	// widthFactor scales the mean head gap into the bucket width. At 8
	// buckets per event, 3/8 of a gap keeps the year as long as Brown's
	// 3 gaps at one bucket per event.
	widthFactor = 0.375
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
	c := &BucketCalendar{}
	c.init()
	return c
}

// init gives an empty calendar its smallest bucket array and bitmap and
// the initial width.
func (c *BucketCalendar) init() {
	c.buckets = getArray[*Event](minBucketCount)
	c.occ = getArray[uint64](1)
	c.mask = minBucketCount - 1
	c.inv = 1.0 / initialBucketWidth
}

// Release gives the bucket, spare and bitmap arrays to the array pools and
// leaves the calendar as NewBucketCalendar builds it: empty, on the
// smallest arrays, drawn afresh, so it shares no storage with the pools
// and Push needs no check for a released calendar. Events still queued
// are dropped from the calendar (Simulator.Release drains them first, to
// recycle them).
func (c *BucketCalendar) Release() {
	putArray(c.buckets)
	putArray(c.spare)
	putArray(c.occ[:cap(c.occ)])
	*c = BucketCalendar{}
	c.init()
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
	if c.fitsEmpty(e) {
		c.linkEmpty(e)
	} else {
		c.pushSlow(e)
	}
}

// fitsEmpty reports whether pushing e is Push's common case, which
// Simulator.At also takes: an event into an empty calendar, or into an
// empty bucket at or after cur, with neither a grow nor a recalibration
// due after it. linkEmpty then pushes e; otherwise pushSlow does.
// fitsEmpty stores e's bucket index, which both read, and calls nothing,
// so the compiler inlines it into its callers.
func (c *BucketCalendar) fitsEmpty(e *Event) bool {
	vb := int64(e.time * c.inv)
	e.bslot = vb
	return (c.n == 0 || c.buckets[vb&c.mask] == nil && vb >= c.cur) &&
		c.n < len(c.buckets)>>growShift && c.misfit <= len(c.buckets)
}

// linkEmpty pushes e, for which fitsEmpty holds, into its empty bucket.
// An empty calendar moves cur onto e, as pushSlow does.
func (c *BucketCalendar) linkEmpty(e *Event) {
	i := e.bslot & c.mask
	if c.n == 0 {
		c.cur = e.bslot
	}
	e.next, e.prev = nil, e
	c.buckets[i] = e
	c.occ[i>>6] |= 1 << (i & 63)
	c.n++
}

// pushSlow is Push in every case, given the bucket index fitsEmpty
// stored: it moves cur back or onto e when needed, inserts e, and grows
// or recalibrates the calendar once that is due.
func (c *BucketCalendar) pushSlow(e *Event) {
	vb := e.bslot
	if c.n == 0 || vb < c.cur {
		// Keep the scan invariant (cur <= every queued bslot). An empty
		// calendar jumps forward too, so a sparse schedule doesn't force
		// the next Pop to scan from a long-gone year.
		c.cur = vb
	}
	c.insert(e)
	c.n++
	if c.n > len(c.buckets)>>growShift {
		c.resize(2 * len(c.buckets))
	} else if c.misfit > len(c.buckets) {
		c.resize(len(c.buckets))
	}
}

// insert links e into its bucket in (time, seq) order: into an empty
// bucket, marking it occupied; after the tail when nothing queued sorts
// after it (a same-time burst arrives in seq order, so each of its events
// lands here); before the head when it sorts before everything; and
// otherwise by a walk back from the tail. A pushed event has the largest
// seq queued, so it goes behind every event of its own time, and the walk
// passes only the events later than it: a same-time burst that lands in
// a bucket already holding a later event costs O(1) per event, not
// O(burst) as a walk from the head would.
func (c *BucketCalendar) insert(e *Event) {
	i := e.bslot & c.mask
	h := c.buckets[i]
	switch {
	case h == nil:
		e.next, e.prev = nil, e
		c.buckets[i] = e
		c.occ[i>>6] |= 1 << (i & 63)
	case !eventAfter(h.prev, e):
		t := h.prev
		e.next, e.prev = nil, t
		t.next = e
		h.prev = e
	case eventAfter(h, e):
		e.next, e.prev = h, h.prev
		h.prev = e
		c.buckets[i] = e
	default:
		// head < e < tail, so the walk back from the tail stops before
		// reaching the head.
		p := h.prev.prev
		for eventAfter(p, e) {
			p = p.prev
			c.misfit++
		}
		e.next, e.prev = p.next, p
		p.next.prev = e
		p.next = e
	}
}

// Peek implements Calendar: the next event without removing it.
func (c *BucketCalendar) Peek() *Event {
	if e := c.head(); e != nil {
		return e
	}
	return c.locateMin()
}

// Pop implements Calendar.
func (c *BucketCalendar) Pop() *Event { return c.pop(math.Inf(1)) }

// pop removes and returns the earliest event if it is due by until, and
// returns nil when the calendar is empty or its earliest event is later.
// Pop and the Simulator's dispatch loop both come here. The common case,
// an earliest event that head finds and whose removal leaves no shrink
// due, runs inlined; a longer scan goes to locateMin and a shrink to
// resize.
func (c *BucketCalendar) pop(until Time) *Event {
	e := c.head()
	if e == nil {
		if e = c.locateMin(); e == nil {
			return nil
		}
	}
	if e.time > until {
		return nil
	}
	c.unlink(e)
	if len(c.buckets) > minBucketCount && c.n < len(c.buckets)>>shrinkShift {
		c.resize(len(c.buckets) / 2)
	}
	return e
}

// head returns the earliest event when it is at hand: the head of cur's
// bucket, or else the first event in cur's bitmap word after cur, when
// its virtual index has been reached. That is the first step of
// locateMin's scan, and head moves cur onto the event as the scan would.
// A bucket's head is its minimum and no queued event lies before cur, so
// the event is the earliest. Otherwise head returns nil and changes
// nothing, and locateMin scans. It calls nothing, so the compiler inlines
// it into its callers. Checking cur's bucket first costs one load and
// spares a dense schedule, whose next event is often where the last one
// was, the bitmap read.
func (c *BucketCalendar) head() *Event {
	i := c.cur & c.mask
	if e := c.buckets[i]; e != nil && e.bslot <= c.cur {
		return e
	}
	if w := c.occ[i>>6] >> (i & 63); w != 0 {
		skip := int64(bits.TrailingZeros64(w))
		if e := c.buckets[i+skip]; e.bslot <= c.cur+skip {
			c.cur += skip
			return e
		}
	}
	return nil
}

// nextOccupied returns the index of the first non-empty bucket at or after
// i, or len(buckets) when none lies between i and the end of the array.
// Bits past the last bucket are never set, so an array shorter than one
// word ends the search at its own end, not at the word's.
func (c *BucketCalendar) nextOccupied(i int) int {
	w := i >> 6
	if word := c.occ[w] >> (i & 63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	for w++; w < len(c.occ); w++ {
		if word := c.occ[w]; word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return len(c.buckets)
}

// locateMin finds the earliest queued event when head has not: the
// calendar is empty, or the first event at or after cur in cur's bitmap
// word is missing or of a later year. The year scan starts at cur and
// visits each bucket at most once, jumping over empty ones through the
// occupancy bitmap; a bucket's head is its minimum, and the head
// qualifies when its virtual index has been reached. The scan leaves cur
// on the event, so head finds it again at once. If a whole year turns up
// nothing, the queue has grown sparse relative to the bucket width, so
// the calendar recalibrates the width in place: the resize puts cur on
// the earliest event, where the next scan finds it at once.
func (c *BucketCalendar) locateMin() *Event {
	if c.n == 0 {
		return nil
	}
	nb := len(c.buckets)
	for left := nb; ; {
		i := int(c.cur & c.mask)
		j := c.nextOccupied(i)
		skip := j - i
		if skip >= left {
			c.resize(nb)
			left = nb
			continue
		}
		c.cur += int64(skip)
		left -= skip
		if j == nb {
			continue // wrapped around to bucket 0
		}
		if h := c.buckets[j]; h.bslot <= c.cur {
			return h
		}
		c.misfit++
		c.cur++
		left--
	}
}

// unlink removes e, the head of its bucket, and marks the bucket empty if
// e was its last event; otherwise the new head takes over the link to the
// tail. e's links are cleared so a recycled event never carries stale
// ones.
func (c *BucketCalendar) unlink(e *Event) {
	i := e.bslot & c.mask
	if h := e.next; h != nil {
		h.prev = e.prev
		c.buckets[i] = h
	} else {
		c.buckets[i] = nil
		c.occ[i>>6] &^= 1 << (i & 63)
	}
	e.next, e.prev = nil, nil
	c.n--
}

// resize rebuilds the calendar with nb buckets (a power of two; the
// current count when it only recalibrates) and a width recalibrated to
// widthFactor times the average inter-event gap among the widthSample
// earliest queued events: Brown's head-sampling rule with a narrower
// factor. Sampling head density rather than the global span keeps the
// current year's buckets sparse even when a sparse far-future tail
// coexists with a dense near-term cluster (burst and bimodal schedules);
// tail events just wrap modulo the bucket count and fail the year-scan
// qualification test until their year arrives.
func (c *BucketCalendar) resize(nb int) {
	// Unlink every event into one chain, visiting the occupied buckets
	// only and leaving the array empty. head collects the widthSample
	// smallest event times on the way, sorted ascending (insertion into a
	// fixed array; a bucket is sorted, so its first event too late to
	// enter ends its scan).
	var all *Event
	var head [widthSample]float64
	hn := 0
	for w, word := range c.occ {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			h := c.buckets[j]
			for e := h; e != nil; e = e.next {
				if hn == len(head) && e.time >= head[hn-1] {
					break
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
			h.prev.next = all
			all = h
			c.buckets[j] = nil
		}
	}
	minT := 0.0
	if hn > 0 {
		minT = head[0]
	}
	if hn > 1 {
		if span := head[hn-1] - head[0]; span > 0 {
			w := widthFactor * span / float64(hn-1)
			if w < minBucketWidth {
				w = minBucketWidth
			}
			c.inv = 1 / w
		}
	}

	// An emptied array is kept as the spare, so grow/shrink oscillation
	// reuses it, and a recalibration keeps its own array.
	if nb != len(c.buckets) {
		old := c.buckets
		if len(c.spare) == nb {
			c.buckets = c.spare
		} else {
			putArray(c.spare)
			c.buckets = getArray[*Event](nb)
		}
		c.spare = old
	}
	// The bitmap's storage is reused whenever it is large enough:
	// shrinking never allocates, and neither does growing back to a size
	// the calendar has held before. Its capacity is always the power of
	// two it was drawn at.
	if words := (nb + 63) >> 6; cap(c.occ) >= words {
		c.occ = c.occ[:words]
		clear(c.occ)
	} else {
		putArray(c.occ[:cap(c.occ)])
		c.occ = getArray[uint64](words)
	}
	c.mask = int64(nb - 1)
	c.cur = int64(minT * c.inv)

	for e := all; e != nil; {
		next := e.next
		e.bslot = int64(e.time * c.inv)
		c.insert(e)
		e = next
	}
	c.misfit = 0
}
