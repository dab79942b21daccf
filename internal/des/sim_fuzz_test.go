package des

import (
	"math"
	"testing"

	"rocc/internal/rng"
)

// simProgram is one Simulator running a fuzz program. Every event it
// schedules gets the next id, so ids follow seq, and each dispatch appends
// (time, id) to log. A fired event may schedule follow-ups, drawn from r,
// so two programs on equal simulators draw the same delays in the same
// order.
type simProgram struct {
	s       *Simulator
	r       *rng.Stream
	log     []simDispatch
	handles []*Event // by id; nil once fired or canceled
	budget  int      // events still allowed, so a program always ends
}

type simDispatch struct {
	t  Time
	id int
}

func newSimProgram(c Calendar, seed uint64) *simProgram {
	return &simProgram{s: NewWithCalendar(c), r: rng.New(seed), budget: 6000}
}

// at schedules event id at time t. When it fires it records itself and,
// by its id, schedules follow-ups from inside fire: an exponential delay,
// a zero delay, or a time on a 10 µs grid that other events share.
func (p *simProgram) at(t Time) {
	if p.budget == 0 {
		return
	}
	p.budget--
	id := len(p.handles)
	p.handles = append(p.handles, p.s.At(t, func() {
		p.handles[id] = nil
		p.log = append(p.log, simDispatch{p.s.Now(), id})
		switch id % 6 {
		case 0:
			p.at(p.s.Now() + p.r.Exp(40))
		case 1:
			p.at(p.s.Now())
		case 2:
			p.at(math.Ceil(p.s.Now()/10)*10 + 10)
		case 3:
			p.at(p.s.Now() + p.r.Exp(40))
			p.at(p.s.Now() + p.r.Exp(400))
		}
	}))
}

// cancel cancels e and forgets its handle, as the recycling contract asks.
func (p *simProgram) cancel(e *Event) {
	for i, h := range p.handles {
		if h == e {
			p.handles[i] = nil
		}
	}
	e.Cancel()
}

// step runs one op of the program and reports whether it dispatched.
//
// Op decoding, by op%8, with arg the op's second byte:
//   - 0: an event at an exponential delay of mean 1+arg µs;
//   - 1: a burst of 16+arg%128 events at one instant, on the 10 µs grid,
//     enough to grow the calendar;
//   - 2: an event at zero delay;
//   - 3: cancel the pending event arg picks, which may lie past any
//     horizon so far;
//   - 4: cancel the earliest pending event, after a Peek that caches it
//     in a bucket calendar;
//   - 5: Run to a horizon arg%4 places before the head, at it, after it,
//     or at Now;
//   - 6: Step;
//   - 7: Run 100·arg µs on, which drains enough to shrink the calendar.
func (p *simProgram) step(op, arg byte) bool {
	s := p.s
	switch op % 8 {
	case 0:
		p.at(s.Now() + p.r.Exp(1+float64(arg)))
	case 1:
		t := math.Ceil(s.Now()/10)*10 + 10*float64(arg%8)
		for i := 0; i < 16+int(arg%128); i++ {
			p.at(t)
		}
	case 2:
		p.at(s.Now())
	case 3:
		if n := len(p.handles); n > 0 {
			for i := 0; i < n; i++ {
				if e := p.handles[(int(arg)*7+i)%n]; e != nil {
					p.cancel(e)
					break
				}
			}
		}
	case 4:
		if e := s.cal.Peek(); e != nil {
			p.cancel(e)
		}
	case 5:
		until := s.Now()
		if e := s.cal.Peek(); e != nil {
			switch arg % 4 {
			case 0:
				until = math.Max(s.Now(), e.Time()-1)
			case 1:
				until = e.Time()
			case 2:
				until = e.Time() + p.r.Exp(50)
			}
		}
		s.Run(until)
		return true
	case 6:
		s.Step()
		return true
	case 7:
		s.Run(s.Now() + 100*float64(arg))
		return true
	}
	return false
}

// FuzzSimulatorMatchesHeap runs one random program on a bucket-backed and
// a heap-backed Simulator and asserts that both dispatch the same (time,
// seq) sequence and agree on Now, Dispatched and Pending after every Run
// and Step. Unlike FuzzCalendarDifferential, which drives the calendars
// alone, it goes through At and the dispatch loop, and so through the
// bucket calendar's inlined push and pop cases and their fall-backs: the
// bursts grow the calendar, long Runs shrink it, cancels and Peeks leave
// a cached minimum, and fired events schedule more events.
func FuzzSimulatorMatchesHeap(f *testing.F) {
	f.Add(uint64(1), []byte{0, 10, 0, 200, 2, 0, 5, 1, 6, 0, 7, 50})
	// A burst that grows the calendar, a cancel of the cached minimum,
	// Runs before, at and after the head, then a drain.
	f.Add(uint64(2), []byte{1, 127, 4, 0, 5, 0, 5, 1, 5, 2, 3, 9, 5, 3, 7, 255})
	// Steps through equal-time events, a cancel past the horizon, and a
	// second burst after the first has drained.
	f.Add(uint64(3), []byte{1, 40, 6, 0, 6, 0, 0, 255, 3, 1, 5, 0, 7, 200, 1, 90, 7, 255, 7, 255})
	f.Fuzz(func(t *testing.T, seed uint64, prog []byte) {
		if len(prog) > 400 {
			prog = prog[:400]
		}
		bucket := newSimProgram(NewBucketCalendar(), seed)
		heap := newSimProgram(NewHeapCalendar(), seed)
		check := func(where int) {
			t.Helper()
			b, h := bucket.s, heap.s
			if b.Now() != h.Now() || b.Dispatched != h.Dispatched || b.Pending() != h.Pending() {
				t.Fatalf("op %d: bucket now %v dispatched %d pending %d, heap now %v dispatched %d pending %d",
					where, b.Now(), b.Dispatched, b.Pending(), h.Now(), h.Dispatched, h.Pending())
			}
			if len(bucket.log) != len(heap.log) {
				t.Fatalf("op %d: bucket dispatched %d events, heap %d", where, len(bucket.log), len(heap.log))
			}
			for i, d := range bucket.log {
				if d != heap.log[i] {
					t.Fatalf("op %d: dispatch %d: bucket (%v, %d), heap (%v, %d)",
						where, i, d.t, d.id, heap.log[i].t, heap.log[i].id)
				}
			}
		}
		for i := 0; i+1 < len(prog); i += 2 {
			bucket.step(prog[i], prog[i+1])
			if heap.step(prog[i], prog[i+1]) {
				check(i / 2)
			}
		}
		bucket.s.RunAll()
		heap.s.RunAll()
		check(len(prog) / 2)
		if bucket.s.Pending() != 0 {
			t.Fatalf("%d events left after RunAll", bucket.s.Pending())
		}
	})
}
