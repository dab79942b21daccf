package des

import "fmt"

// CalendarKind names a future-event-list implementation. The zero value
// (CalendarAuto) lets NewCalendarFor pick from workload hints.
type CalendarKind int

const (
	// CalendarAuto selects heap or bucket from WorkloadHints.
	CalendarAuto CalendarKind = iota
	// CalendarHeap is the binary min-heap (O(log n) push/pop).
	CalendarHeap
	// CalendarBucket is the calendar queue (O(1) amortized push/pop).
	CalendarBucket
)

// String implements fmt.Stringer with the names ParseCalendarKind accepts.
func (k CalendarKind) String() string {
	switch k {
	case CalendarAuto:
		return "auto"
	case CalendarHeap:
		return "heap"
	case CalendarBucket:
		return "bucket"
	}
	return fmt.Sprintf("CalendarKind(%d)", int(k))
}

// ParseCalendarKind resolves a -calendar flag value. "cq" is accepted as a
// synonym for "bucket" (calendar queue).
func ParseCalendarKind(s string) (CalendarKind, error) {
	switch s {
	case "", "auto":
		return CalendarAuto, nil
	case "heap":
		return CalendarHeap, nil
	case "bucket", "cq":
		return CalendarBucket, nil
	}
	return CalendarAuto, fmt.Errorf("des: unknown calendar %q (auto, heap, bucket)", s)
}

// WorkloadHints describes the schedule a calendar will carry, so Auto can
// pick the implementation that wins on that shape.
type WorkloadHints struct {
	// PendingEvents is the expected steady-state future-event-list size
	// (0 = unknown, treated as large).
	PendingEvents int
}

// autoBucketMinPending is the population below which Auto keeps the binary
// heap. Calibrated from the hold-model ablation (BenchmarkHoldModel): below
// ~40 pending events the heap's log factor is a few levels of hot cache
// lines and edges out the calendar queue's year-scan bookkeeping; the
// crossover sits at ≈40 and the bucket calendar's lead grows with
// population (exponential holds: ~1.3x at 10^2, ~1.7x at 10^3, ~2.7x at
// 10^6; bimodal and burst similar at scale, with burst the one shape where
// the heap keeps a lead until ~10^4 because near-zero holds pile events
// into the head bucket).
const autoBucketMinPending = 48

// NewCalendarFor returns a calendar of the requested kind, resolving
// CalendarAuto from the workload hints.
func NewCalendarFor(k CalendarKind, h WorkloadHints) Calendar {
	switch k {
	case CalendarHeap:
		return NewHeapCalendar()
	case CalendarBucket:
		return NewBucketCalendar()
	}
	if h.PendingEvents > 0 && h.PendingEvents < autoBucketMinPending {
		return NewHeapCalendar()
	}
	return NewBucketCalendar()
}
