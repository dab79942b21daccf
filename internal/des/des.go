// Package des is a deterministic discrete-event simulation engine using the
// classic event-scheduling world view. The ROCC model of the Paradyn
// instrumentation system executes on top of it: resources and processes
// schedule callbacks on a future event list, and the simulator dispatches
// them in non-decreasing time order.
//
// Time is a float64 in microseconds, matching the units of the workload
// characterization in Table 2 of the paper. Events at equal times are
// dispatched in scheduling order (FIFO), which keeps runs exactly
// reproducible for a fixed seed.
package des

import (
	"math"
	"sync"
)

// Time is simulated time in microseconds.
type Time = float64

// Event is a scheduled callback. It can be canceled before it fires.
//
// Recycling contract: once an event has fired, or has been discarded by
// the dispatch loop after cancellation, the simulator may reuse the Event
// for a later Schedule/At call (a per-simulator free list keeps the hot
// path allocation-free). Holders must therefore drop or overwrite a
// retained *Event as soon as it fires or as soon as they cancel it —
// exactly the hygiene the model already practices (a daemon's flush timer
// is nil'd in its own callback and after Cancel; a link's retransmission
// timer is replaced inside its timeout). Querying or canceling a handle
// kept beyond that point may observe an unrelated, recycled event.
type Event struct {
	time     Time
	seq      uint64
	fn       func()
	canceled bool
	fired    bool
	bslot    int64  // virtual bucket index while queued in a BucketCalendar
	next     *Event // successor in its BucketCalendar bucket while queued
	prev     *Event // predecessor in its bucket, or for the bucket's head its tail
}

// Time returns the simulated time at which the event fires.
func (e *Event) Time() Time { return e.time }

// Cancel prevents a pending event from firing. Canceling an event that has
// already fired is a no-op that leaves the event marked fired, not
// canceled, so Canceled/Fired stay an accurate record of what happened;
// canceling twice is likewise a no-op.
func (e *Event) Cancel() {
	if e.fired {
		return
	}
	e.canceled = true
}

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// Fired reports whether the event's callback has run.
func (e *Event) Fired() bool { return e.fired }

// Calendar is a future event list. Two implementations are provided: a
// binary heap (the New default) and a calendar queue (BucketCalendar, the
// O(1)-amortized choice NewCalendarFor makes for non-trivial populations).
// Both pop in identical (time, seq) order.
type Calendar interface {
	Push(*Event)
	Pop() *Event  // next event in (time, seq) order, nil when empty
	Peek() *Event // next event without removing it, nil when empty
	Len() int
}

// Observer receives engine-level notifications. Implementations must not
// schedule, cancel, or otherwise touch the simulator from the callback —
// observers watch the run, they don't steer it.
type Observer interface {
	// EventDispatched fires after each executed (non-canceled) event with
	// the event's time and the remaining calendar length.
	EventDispatched(t Time, pending int)
}

// Simulator owns the simulation clock and the future event list.
type Simulator struct {
	now Time
	cal Calendar
	seq uint64

	// bc is cal when cal is a *BucketCalendar, and nil otherwise. The
	// dispatch loop and At call it directly, so a bucket calendar's push
	// and pop take no interface call and its common cases inline.
	bc *BucketCalendar

	// free recycles fired and discarded-canceled events so steady-state
	// scheduling allocates nothing (see the Event recycling contract).
	// batch is the holder that carried free in from eventBatches, kept to
	// carry it out again on Release.
	free  []*Event
	batch *eventBatch

	// Dispatched counts events actually executed (not canceled ones).
	Dispatched uint64

	// Obs, when non-nil, observes the dispatch loop. The nil check is the
	// whole disabled-path cost (see BenchmarkStepNilObserver).
	Obs Observer
}

// maxFree caps the free list so a burst of in-flight events cannot pin
// memory for the rest of a run.
const maxFree = 4096

// New returns a simulator with a heap calendar, clock at zero.
func New() *Simulator { return NewWithCalendar(NewHeapCalendar()) }

// eventBatch carries a released simulator's free list to the next
// simulator. The holder travels with the list, so neither Put nor Get
// allocates once a holder exists.
type eventBatch struct{ events []*Event }

// eventBatches holds the free lists of released simulators.
var eventBatches sync.Pool

// NewWithCalendar returns a simulator using the supplied event calendar.
// Its free list starts as a released simulator's, when one is pooled.
func NewWithCalendar(c Calendar) *Simulator {
	s := &Simulator{cal: c}
	s.bc, _ = c.(*BucketCalendar)
	if b, _ := eventBatches.Get().(*eventBatch); b != nil {
		s.free, s.batch = b.events, b
		b.events = nil
	}
	return s
}

// Release ends the simulator's use: it drains the pending events into the
// free list, hands the free list to the next simulator NewWithCalendar
// builds, and releases the calendar's storage when the calendar has a
// Release method (BucketCalendar). Afterwards the calendar is empty, the
// simulator holds no pooled storage, and every *Event it returned may
// belong to another simulator, so its owner must neither run it nor read
// its events again. Recycling storage changes no later run's events,
// times or order.
func (s *Simulator) Release() {
	for e := s.cal.Pop(); e != nil; e = s.cal.Pop() {
		s.release(e)
	}
	if r, ok := s.cal.(interface{ Release() }); ok {
		r.Release()
	}
	b := s.batch
	if b == nil {
		b = new(eventBatch)
	}
	b.events = s.free
	s.free, s.batch = nil, nil
	eventBatches.Put(b)
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of events in the future event list, including
// canceled events not yet discarded.
func (s *Simulator) Pending() int { return s.cal.Len() }

// Schedule queues fn to run delay microseconds from now. Negative delays
// panic: the ROCC model never schedules into the past, so a negative delay
// is a model bug worth failing loudly on.
func (s *Simulator) Schedule(delay Time, fn func()) *Event {
	if delay < 0 || math.IsNaN(delay) {
		panic("des: negative or NaN delay")
	}
	return s.At(s.now+delay, fn)
}

// At queues fn to run at absolute time t >= Now(). The Event returned may
// be a recycled one (see the Event recycling contract).
func (s *Simulator) At(t Time, fn func()) *Event {
	if t < s.now || math.IsNaN(t) {
		panic("des: scheduling into the past")
	}
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		*e = Event{time: t, seq: s.seq, fn: fn}
	} else {
		e = &Event{time: t, seq: s.seq, fn: fn}
	}
	s.seq++
	if c := s.bc; c == nil {
		s.cal.Push(e)
	} else if c.fitsEmpty(e) {
		c.linkEmpty(e)
	} else {
		c.pushSlow(e)
	}
	return e
}

// release returns a spent event (fired, or canceled and discarded) to the
// free list. The closure is severed here for canceled events; fire already
// severed it for dispatched ones.
func (s *Simulator) release(e *Event) {
	e.fn = nil
	if len(s.free) < maxFree {
		s.free = append(s.free, e)
	}
}

// popCal is the dispatch loop's pop for a calendar other than a
// BucketCalendar, through the Calendar interface: the earliest event if
// it is due by until, and nil when the calendar is empty or its earliest
// event is later. Without a horizon to check it is one Pop.
func (s *Simulator) popCal(until Time) *Event {
	if math.IsInf(until, 1) {
		return s.cal.Pop()
	}
	if e := s.cal.Peek(); e == nil || e.time > until {
		return nil
	}
	return s.cal.Pop()
}

// Step dispatches the next event. It returns false when the calendar is
// empty. Canceled events are discarded without advancing Dispatched, but do
// advance the clock to their timestamp (harmless: a later real event can
// only be at an equal or later time).
func (s *Simulator) Step() bool {
	for {
		var e *Event
		if c := s.bc; c != nil {
			e = c.pop(math.Inf(1))
		} else {
			e = s.popCal(math.Inf(1))
		}
		if e == nil {
			return false
		}
		if e.time < s.now {
			panic("des: calendar returned an event from the past")
		}
		s.now = e.time
		if e.canceled {
			s.release(e)
			continue
		}
		s.Dispatched++
		s.fire(e)
		s.release(e)
		if s.Obs != nil {
			s.Obs.EventDispatched(s.now, s.cal.Len())
		}
		return true
	}
}

// fire runs an event's callback exactly once, marking it fired and
// releasing the closure so a retained *Event cannot pin captured state.
func (s *Simulator) fire(e *Event) {
	e.fired = true
	fn := e.fn
	e.fn = nil
	fn()
}

// Run dispatches events until the calendar is empty or the next event is
// after until; the clock finishes exactly at until and never exceeds it,
// even when the head of the calendar is a canceled event past the horizon
// (such events stay queued for a later Run call). Events scheduled at
// time == until are dispatched. A bucket calendar is popped directly, so
// its common case costs no call beyond the pop itself.
func (s *Simulator) Run(until Time) {
	if until < s.now {
		panic("des: Run target before current time")
	}
	for {
		var e *Event
		if c := s.bc; c != nil {
			e = c.pop(until)
		} else {
			e = s.popCal(until)
		}
		if e == nil {
			break
		}
		s.now = e.time
		if e.canceled {
			s.release(e)
			continue
		}
		s.Dispatched++
		s.fire(e)
		s.release(e)
		if s.Obs != nil {
			s.Obs.EventDispatched(s.now, s.cal.Len())
		}
	}
	s.now = until
}

// RunAll dispatches every remaining event.
func (s *Simulator) RunAll() {
	for s.Step() {
	}
}
