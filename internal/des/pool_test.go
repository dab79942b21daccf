package des

import (
	"runtime"
	"runtime/debug"
	"testing"

	"rocc/internal/rng"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// holdPools keeps what the pools hold for the rest of the test: GC off, so
// no cycle empties them, and one P, so the goroutine cannot move to a P
// whose pool cache lacks an item. Skipped under -race, where sync.Pool
// drops items at random on purpose.
func holdPools(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	gc := debug.SetGCPercent(-1)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	})
}

// A released queue's rings go to the pool, so a second queue growing to
// the same length allocates nothing.
func TestFIFOReleasedRingsAreReused(t *testing.T) {
	holdPools(t)
	fill := func(q *FIFO[int]) {
		for i := 0; i < 1000; i++ {
			q.Push(i)
		}
	}
	var first FIFO[int]
	fill(&first)
	first.Release()
	allocs := testing.AllocsPerRun(100, func() {
		var q FIFO[int]
		fill(&q)
		q.Release()
	})
	if allocs != 0 {
		t.Fatalf("a queue growing into released rings allocated %.2f objects", allocs)
	}
}

// Release leaves the zero value: empty, holding no pooled ring, and ready
// to use. Rings come back cleared, so no value crosses between queues.
func TestFIFOReleaseLeavesEmptyQueue(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 10; i++ {
		v := i
		q.Push(&v)
	}
	q.Pop()
	q.Release()
	if q.Len() != 0 || q.buf != nil {
		t.Fatalf("released queue: len %d, ring of %d", q.Len(), len(q.buf))
	}
	var r FIFO[*int]
	for i := 0; i < 16; i++ {
		r.Push(nil)
	}
	for i := 0; i < 16; i++ {
		if p := r.Pop(); p != nil {
			t.Fatalf("slot %d of a reused ring holds %d", i, *p)
		}
	}
	v := 7
	q.Push(&v)
	if got := *q.Pop(); got != 7 {
		t.Fatalf("released queue popped %d, want 7", got)
	}
}

// A released simulator drains its pending events and hands them, with its
// free list, to the next simulator, whose schedule then allocates no
// events; its bucket calendar is left empty on the smallest arrays.
func TestSimulatorReleaseRecyclesEvents(t *testing.T) {
	holdPools(t)
	const pending = 500
	r := rng.New(3)
	s := NewWithCalendar(NewBucketCalendar())
	for i := 0; i < pending; i++ {
		s.Schedule(r.Exp(100), func() {})
	}
	s.Run(50)
	s.Release()
	if s.Pending() != 0 || len(s.free) != 0 {
		t.Fatalf("released simulator: %d pending, %d free", s.Pending(), len(s.free))
	}
	cal := s.cal.(*BucketCalendar)
	if len(cal.buckets) != minBucketCount || cal.spare != nil || len(cal.occ) != 1 {
		t.Fatalf("released calendar holds %d buckets, a spare of %d, %d bitmap words",
			len(cal.buckets), len(cal.spare), len(cal.occ))
	}

	next := NewWithCalendar(NewHeapCalendar())
	if len(next.free) != pending {
		t.Fatalf("next simulator starts with %d free events, want %d", len(next.free), pending)
	}
	for _, e := range next.free {
		if e.fn != nil {
			t.Fatal("a recycled event keeps its callback")
		}
	}
	next.cal.(*HeapCalendar).events = make([]*Event, 0, pending)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pending; i++ {
		next.Schedule(float64(i), nil)
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
		t.Fatalf("scheduling %d events from a released batch allocated %d objects", pending, allocs)
	}

	// The released calendar is still a valid, empty calendar.
	var order []int
	for i, dt := range []float64{30, 10, 20} {
		i := i
		s.Schedule(dt, func() { order = append(order, i) })
	}
	s.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Fatalf("released simulator ran %v, want [1 2 0]", order)
	}
}
