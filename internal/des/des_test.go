package des

import (
	"sort"
	"testing"
	"testing/quick"

	"rocc/internal/rng"
)

func TestScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock %v, want 30", s.Now())
	}
	if s.Dispatched != 3 {
		t.Fatalf("dispatched %d", s.Dispatched)
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	for _, cal := range []Calendar{NewHeapCalendar(), NewBucketCalendar()} {
		s := NewWithCalendar(cal)
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			s.Schedule(5, func() { got = append(got, i) })
		}
		s.RunAll()
		for i, v := range got {
			if v != i {
				t.Fatalf("%T: equal-time events out of FIFO order: %v", cal, got)
			}
		}
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(10, func() { fired = true })
	s.Schedule(5, func() { e.Cancel() })
	s.RunAll()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
	if s.Dispatched != 1 {
		t.Fatalf("dispatched %d, want 1", s.Dispatched)
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		s.Schedule(d, func() { got = append(got, d) })
	}
	s.Run(12)
	if len(got) != 2 || s.Now() != 12 {
		t.Fatalf("after Run(12): events %v, now %v", got, s.Now())
	}
	// Event exactly at the horizon is dispatched.
	s.Run(15)
	if len(got) != 3 || got[2] != 15 {
		t.Fatalf("boundary event not dispatched: %v", got)
	}
	s.Run(100)
	if len(got) != 4 || s.Now() != 100 {
		t.Fatalf("final: events %v, now %v", got, s.Now())
	}
}

func TestScheduleDuringDispatch(t *testing.T) {
	s := New()
	var got []Time
	s.Schedule(10, func() {
		got = append(got, s.Now())
		s.Schedule(0, func() { got = append(got, s.Now()) }) // same-time follow-on
		s.Schedule(5, func() { got = append(got, s.Now()) })
	})
	s.RunAll()
	want := []Time{10, 10, 15}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPanicsOnBadSchedules(t *testing.T) {
	s := New()
	mustPanic(t, "negative delay", func() { s.Schedule(-1, func() {}) })
	s.Schedule(10, func() {})
	s.RunAll()
	mustPanic(t, "past At", func() { s.At(5, func() {}) })
	mustPanic(t, "past Run", func() { s.Run(5) })
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

func TestStepEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty calendar returned true")
	}
	if s.Pending() != 0 {
		t.Fatal("Pending != 0")
	}
}

// Both calendar implementations must produce identical dispatch sequences
// on random workloads (the event-queue ablation must not change results).
func TestCalendarEquivalence(t *testing.T) {
	run := func(cal Calendar) []Time {
		s := NewWithCalendar(cal)
		r := rng.New(77)
		var got []Time
		var rec func()
		count := 0
		rec = func() {
			got = append(got, s.Now())
			count++
			if count < 500 {
				s.Schedule(r.Exp(100), rec)
				if r.Bernoulli(0.3) {
					s.Schedule(r.Exp(50), rec)
					count++ // keep total bounded
				}
			}
		}
		s.Schedule(0, rec)
		s.Run(1e6)
		return got
	}
	a := run(NewHeapCalendar())
	for _, other := range []Calendar{NewBucketCalendar()} {
		b := run(other)
		if len(a) != len(b) {
			t.Fatalf("%T: dispatch counts differ: %d vs %d", other, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%T: dispatch %d differs: %v vs %v", other, i, a[i], b[i])
			}
		}
	}
}

// Property: events always come out of either calendar in sorted time order.
func TestQuickCalendarsSorted(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		count := int(n)%200 + 1
		for _, mk := range []func() Calendar{
			func() Calendar { return NewHeapCalendar() },
			func() Calendar { return NewBucketCalendar() },
		} {
			cal := mk()
			r := rng.New(seed)
			times := make([]Time, count)
			for i := range times {
				times[i] = r.Float64() * 1000
				cal.Push(&Event{time: times[i], seq: uint64(i)})
			}
			sort.Float64s(times)
			for i := 0; i < count; i++ {
				e := cal.Pop()
				if e == nil || e.time != times[i] {
					return false
				}
			}
			if cal.Pop() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved push/pop keeps the heap consistent.
func TestQuickHeapInterleaved(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := NewHeapCalendar()
		last := Time(-1)
		live := 0
		var seq uint64
		for op := 0; op < 500; op++ {
			if live == 0 || r.Bernoulli(0.6) {
				tm := last
				if tm < 0 {
					tm = 0
				}
				h.Push(&Event{time: tm + r.Float64()*100, seq: seq})
				seq++
				live++
			} else {
				e := h.Pop()
				if e == nil || e.time < last {
					return false
				}
				last = e.time
				live--
			}
		}
		return h.Len() == live
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func benchCalendar(b *testing.B, mk func() Calendar) {
	r := rng.New(1)
	s := NewWithCalendar(mk())
	// Self-rescheduling event population of ~1000 concurrent timers.
	for i := 0; i < 1000; i++ {
		var rec func()
		rec = func() { s.Schedule(r.Exp(100), rec) }
		s.Schedule(r.Exp(100), rec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkHeapCalendar(b *testing.B) {
	benchCalendar(b, func() Calendar { return NewHeapCalendar() })
}
func BenchmarkBucketCalendar(b *testing.B) {
	benchCalendar(b, func() Calendar { return NewBucketCalendar() })
}

// The bucket calendar must uphold the same steady-state zero-alloc
// guarantee as the heap: once resizes have settled, Push/Pop only relink
// events, and the simulator recycles the events themselves.
func TestBucketSteadyStateDoesNotAllocate(t *testing.T) {
	s := NewWithCalendar(NewBucketCalendar())
	r := rng.New(9)
	for i := 0; i < 256; i++ {
		var rec func()
		rec = func() { s.Schedule(r.Exp(100), rec) }
		s.Schedule(r.Exp(100), rec)
	}
	// Warm up: let resizes settle and the event free list fill.
	for i := 0; i < 10000; i++ {
		s.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state bucket Step allocated %.2f objects per event", allocs)
	}
}

// Buckets own no storage, so a Push that does not resize allocates
// nothing, even into a bucket no event has touched before. A fresh
// calendar takes minBucketCount>>growShift pushes (one event per four
// buckets) before it grows, so each run makes exactly that many, into one
// bucket through the four insert branches: cold, append, new head and
// mid-list. Each run uses the next bucket of its fresh calendar, so the
// runs touch every bucket cold.
func TestBucketPushDoesNotAllocate(t *testing.T) {
	const runs = 50
	w := float64(initialBucketWidth)
	offsets := []float64{w / 2, w * 3 / 4, w / 4, w * 5 / 8} // cold, append, new head, mid-list
	const pushes = minBucketCount >> growShift
	if len(offsets) != pushes {
		t.Fatalf("%d offsets for %d pushes before the first resize", len(offsets), pushes)
	}
	cals := make([]*BucketCalendar, runs+1)
	evs := make([][]Event, runs+1)
	for i := range cals {
		cals[i] = NewBucketCalendar()
		evs[i] = make([]Event, pushes)
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c, ev := cals[k], evs[k]
		b := k % minBucketCount
		k++
		for n, dt := range offsets {
			e := &ev[n]
			*e = Event{time: float64(b)*w + dt, seq: uint64(n)}
			c.Push(e)
		}
		if c.Len() != pushes || len(c.buckets) != minBucketCount {
			t.Fatalf("len %d, buckets %d: want %d events in %d buckets",
				c.Len(), len(c.buckets), pushes, minBucketCount)
		}
		n := 0
		for e := c.buckets[b]; e != nil; e = e.next {
			n++
		}
		if n != pushes {
			t.Fatalf("bucket %d holds %d of the %d events", b, n, pushes)
		}
	})
	if allocs > 0 {
		t.Fatalf("Push allocated %.2f objects per run", allocs)
	}
}

// nextOccupied ends its search at the end of the bucket array. Arrays of
// 16 and 32 buckets are shorter than one bitmap word, and a search that
// ran on to the word's end would skip the wrap and end the year scan
// early. In larger arrays the search crosses from one word into the next.
func TestNextOccupiedStopsAtArrayEnd(t *testing.T) {
	for _, nb := range []int{16, 32, 64, 128} {
		c := NewBucketCalendar()
		c.buckets = make([]*Event, nb)
		c.occ = make([]uint64, (nb+63)/64)
		c.mask = int64(nb - 1)
		for _, b := range []int{2, nb / 2} {
			c.occ[b>>6] |= 1 << (b & 63)
		}
		want := map[int]int{0: 2, 2: 2, 3: nb / 2, nb/2 + 1: nb, nb - 1: nb}
		for i, w := range want {
			if got := c.nextOccupied(i); got != w {
				t.Errorf("%d buckets: nextOccupied(%d) = %d, want %d", nb, i, got, w)
			}
		}
	}
}

// Regression (cancellation hygiene): canceling an event that has already
// fired must be a no-op that leaves the event marked fired (not canceled);
// canceling twice must be idempotent. Exercised on both Calendar implementations.
func TestCancelAfterFireAndCancelTwice(t *testing.T) {
	for _, mk := range []func() Calendar{
		func() Calendar { return NewHeapCalendar() },
		func() Calendar { return NewBucketCalendar() },
	} {
		cal := mk()
		s := NewWithCalendar(cal)
		fired := 0
		e := s.Schedule(10, func() { fired++ })
		s.RunAll()
		if fired != 1 || !e.Fired() {
			t.Fatalf("%T: event did not fire exactly once", cal)
		}
		e.Cancel() // cancel-after-fire: no-op
		if e.Canceled() {
			t.Fatalf("%T: cancel-after-fire marked the event canceled", cal)
		}

		e2 := s.Schedule(5, func() { fired += 10 })
		e2.Cancel()
		e2.Cancel() // cancel-twice: idempotent
		if !e2.Canceled() {
			t.Fatalf("%T: cancel-twice lost the canceled state", cal)
		}
		s.RunAll()
		if fired != 1 || e2.Fired() {
			t.Fatalf("%T: canceled event fired (count %d)", cal, fired)
		}
	}
}

// Regression (clock semantics at the Run horizon): a canceled event at
// the head of the calendar that lies past `until` must not advance the
// clock beyond `until` — it stays queued for a later Run call and is
// discarded only when the horizon reaches it. A canceled event exactly at
// the horizon is discarded without dispatching.
func TestRunBoundaryWithCanceledHead(t *testing.T) {
	for _, mk := range []func() Calendar{
		func() Calendar { return NewHeapCalendar() },
		func() Calendar { return NewBucketCalendar() },
	} {
		s := NewWithCalendar(mk())
		fired := 0
		past := s.Schedule(20, func() { fired++ }) // head event beyond the horizon
		past.Cancel()
		s.Run(10)
		if s.Now() != 10 {
			t.Fatalf("%T: canceled head past horizon moved clock to %v, want 10", s.cal, s.Now())
		}
		if s.Pending() != 1 {
			t.Fatalf("%T: canceled head past horizon was discarded early (pending %d)", s.cal, s.Pending())
		}

		at := s.Schedule(5, func() { fired++ }) // t = 15: exactly at the next horizon
		at.Cancel()
		s.Run(15)
		if s.Now() != 15 || fired != 0 {
			t.Fatalf("%T: canceled event at horizon: now %v fired %d", s.cal, s.Now(), fired)
		}
		if s.Pending() != 1 { // only the canceled t=20 event remains
			t.Fatalf("%T: canceled event at horizon not discarded (pending %d)", s.cal, s.Pending())
		}
		if s.Dispatched != 0 {
			t.Fatalf("%T: canceled events counted as dispatched", s.cal)
		}

		s.Run(30) // horizon passes the canceled t=20 event: discard, clock at 30
		if s.Now() != 30 || s.Pending() != 0 || fired != 0 {
			t.Fatalf("%T: final state now=%v pending=%d fired=%d", s.cal, s.Now(), s.Pending(), fired)
		}
	}
}

// The free list must recycle spent events: steady-state scheduling reuses
// the same structs instead of allocating, and a recycled event carries
// none of its previous incarnation's state.
func TestEventRecycling(t *testing.T) {
	s := New()
	e1 := s.Schedule(1, func() {})
	s.RunAll()
	e2 := s.Schedule(1, func() {})
	if e1 != e2 {
		t.Fatal("fired event was not recycled by the next Schedule")
	}
	if e2.Fired() || e2.Canceled() || e2.Time() != s.Now()+1 {
		t.Fatalf("recycled event carries stale state: fired=%v canceled=%v t=%v",
			e2.Fired(), e2.Canceled(), e2.Time())
	}
	e2.Cancel()
	s.RunAll()
	e3 := s.Schedule(2, func() {})
	if e3 != e2 {
		t.Fatal("discarded canceled event was not recycled")
	}
	if e3.Canceled() {
		t.Fatal("recycled event inherited the canceled flag")
	}
	s.RunAll()
}

// Steady-state self-rescheduling workloads must not allocate events: the
// free list turns the per-event allocation into reuse.
func TestSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	s := New()
	var rec func()
	n := 0
	rec = func() {
		n++
		if n < 100 {
			s.Schedule(1, rec)
		}
	}
	s.Schedule(1, rec)
	allocs := testing.AllocsPerRun(10, func() {
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state Step allocated %.1f objects per event", allocs)
	}
}

// A fired event releases its callback closure so retained *Event handles
// (e.g. a daemon's flush timer) cannot pin captured state.
func TestFiredEventReleasesClosure(t *testing.T) {
	s := New()
	e := s.Schedule(1, func() {})
	s.RunAll()
	if e.fn != nil {
		t.Fatal("fired event retained its closure")
	}
	c := s.Schedule(1, func() {})
	c.Cancel()
	s.RunAll()
	if c.fn != nil {
		t.Fatal("discarded canceled event retained its closure")
	}
}

// countingObserver records dispatch notifications for the observer tests.
type countingObserver struct {
	events  int
	lastT   Time
	pending []int
}

func (o *countingObserver) EventDispatched(t Time, pending int) {
	o.events++
	o.lastT = t
	o.pending = append(o.pending, pending)
}

// An attached observer sees every executed event — from both Step and Run
// — with the dispatch-time clock, and never sees canceled events.
func TestObserverSeesDispatches(t *testing.T) {
	s := New()
	obs := &countingObserver{}
	s.Obs = obs
	s.Schedule(1, func() {})
	s.Schedule(2, func() {})
	canceled := s.Schedule(3, func() {})
	canceled.Cancel()
	s.Schedule(4, func() {})

	s.Step()
	if obs.events != 1 || obs.lastT != 1 {
		t.Fatalf("after Step: events=%d lastT=%v, want 1 at t=1", obs.events, obs.lastT)
	}
	s.Run(10)
	if obs.events != 3 {
		t.Fatalf("observer saw %d events, want 3 (canceled one skipped)", obs.events)
	}
	if obs.lastT != 4 {
		t.Fatalf("last dispatch at t=%v, want 4", obs.lastT)
	}
	if int(s.Dispatched) != obs.events {
		t.Fatalf("observer count %d != Dispatched %d", obs.events, s.Dispatched)
	}
	// pending reflects the calendar after each dispatch, ending empty.
	if obs.pending[len(obs.pending)-1] != 0 {
		t.Fatalf("final pending %d, want 0", obs.pending[len(obs.pending)-1])
	}
}

// The steady-state zero-alloc guarantee (PR 2's free-list baseline) must
// hold with the observer hook compiled in but not attached.
func TestSteadyStateNilObserverDoesNotAllocate(t *testing.T) {
	s := New()
	var rec func()
	rec = func() { s.Schedule(1, rec) }
	s.Schedule(1, rec)
	allocs := testing.AllocsPerRun(100, func() {
		s.Step()
	})
	if allocs > 0 {
		t.Fatalf("nil-observer Step allocated %.1f objects per event", allocs)
	}
}

// benchStep measures the dispatch hot path of a self-rescheduling
// workload; the nil/attached pair quantifies the observer hook's cost. It
// runs on a bucket calendar, so Step takes the concrete push and pop and
// their inlined common cases, as the model's runs do.
func benchStep(b *testing.B, obs Observer) {
	s := NewWithCalendar(NewBucketCalendar())
	s.Obs = obs
	var rec func()
	rec = func() { s.Schedule(1, rec) }
	s.Schedule(1, rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// tallyObserver is the cheapest possible attached observer, so the
// attached benchmark measures hook dispatch, not observer work.
type tallyObserver struct{ n uint64 }

func (o *tallyObserver) EventDispatched(t Time, pending int) { o.n++ }

// BenchmarkStepNilObserver is the zero-overhead-when-disabled proof: it
// must report 0 allocs/op and ns/op indistinguishable from the PR 2
// baseline (the hook adds one predicted-not-taken branch).
func BenchmarkStepNilObserver(b *testing.B)      { benchStep(b, nil) }
func BenchmarkStepAttachedObserver(b *testing.B) { benchStep(b, &tallyObserver{}) }

// Every calendar name parses to its kind and back; unknown names,
// including the retired "list", are errors.
func TestParseCalendarKind(t *testing.T) {
	for _, k := range []CalendarKind{CalendarAuto, CalendarHeap, CalendarBucket} {
		if got, err := ParseCalendarKind(k.String()); err != nil || got != k {
			t.Errorf("ParseCalendarKind(%q) = %v, %v", k, got, err)
		}
	}
	for _, bad := range []string{"list", "sorted", "HEAP"} {
		if _, err := ParseCalendarKind(bad); err == nil {
			t.Errorf("ParseCalendarKind(%q) accepted", bad)
		}
	}
}
