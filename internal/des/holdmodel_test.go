package des

import (
	"fmt"
	"math"
	"testing"

	"rocc/internal/rng"
)

// Hold-model calendar microbenchmarks (the classic event-list evaluation
// methodology, and the BenchmarkAblationEventQueue companion at controlled
// populations): keep a fixed population of n pending events and repeatedly
// pop the minimum and re-push it at popped.time + hold, with the hold time
// drawn from a distribution. Steady-state Push/Pop cost is isolated from
// model work, so these are what calibrate NewCalendarFor's
// autoBucketMinPending threshold. CI runs them in smoke mode
// (-benchtime=1x) to keep them compiling and crash-free; real comparisons
// want -benchtime=1s or more.
//
// Distributions:
//   - exponential: memoryless holds, the textbook case (uniform spread)
//   - bimodal: 90% short / 10% 100x-longer holds — clusters the near
//     future while a heavy tail stretches the year, stressing the bucket
//     width compromise
//   - burst: 95% near-zero holds with rare large jumps — many events pile
//     into the current bucket, stressing within-bucket insertion order
//   - sync: n synchronized timers, equal period and equal phase, like the
//     sampling timers of n application processes; every tick is one
//     same-time burst of n events in one bucket, so a pop that shifted the
//     bucket would cost O(n)
//   - tick: mpp256-tree's schedule. A popped event waits for the next
//     40 ms sampling tick with probability 0.03 (a synchronized period
//     timer), leaves for a sparse tail five seconds out on average with
//     probability 0.00015, and otherwise holds for a lognormal application
//     burst (Table 2's CPU demand). In steady state about a fifth of the
//     events wait for the tick and a fifth sit in the tail, like the 256
//     sampling timers and the background arrivals among mpp256-tree's
//     ~1.3k pending events; the rest are bursts, which each tick's timers
//     join over the next few milliseconds. The tail would take seconds of
//     simulated time to fill from an empty start, so the calendar starts
//     from that mix instead
type holdDist struct {
	name  string
	next  func(r *rng.Stream, t float64) float64 // the re-push time after t
	start func(r *rng.Stream) float64            // an initial time; nil means next(r, 0)
}

// tickPeriod is the tick shape's sampling period (µs).
const tickPeriod = 40000

func holdDists() []holdDist {
	followUp := rng.Prepare(rng.Lognormal{MeanVal: 2213, SD: 3034})
	return []holdDist{
		{"exp", func(r *rng.Stream, t float64) float64 { return t + r.Exp(100) }, nil},
		{"bimodal", func(r *rng.Stream, t float64) float64 {
			if r.Bernoulli(0.1) {
				return t + r.Exp(10000)
			}
			return t + r.Exp(100)
		}, nil},
		{"burst", func(r *rng.Stream, t float64) float64 {
			if r.Bernoulli(0.05) {
				return t + r.Exp(5000)
			}
			return t + r.Exp(1)
		}, nil},
		{"sync", func(_ *rng.Stream, t float64) float64 { return t + 1000 }, nil},
		{"tick", func(r *rng.Stream, t float64) float64 {
			switch u := r.Float64(); {
			case u < 0.03:
				// Multiples of the period are exact in float64, so every
				// timer of one tick has the same time.
				return (math.Floor(t/tickPeriod) + 1) * tickPeriod
			case u < 0.03015:
				return t + r.Exp(5e6)
			default:
				return t + followUp.Sample(r)
			}
		}, func(r *rng.Stream) float64 {
			switch u := r.Float64(); {
			case u < 0.2:
				return tickPeriod
			case u < 0.4:
				return r.Exp(5e6)
			default:
				return followUp.Sample(r)
			}
		}},
	}
}

// holdSteady fills cal with n events from d, then pops and re-pushes
// rounds×n times so the schedule forgets its start. It returns the next
// free seq.
func holdSteady(cal Calendar, d holdDist, n, rounds int, r *rng.Stream) uint64 {
	var seq uint64
	for i := 0; i < n; i++ {
		var t float64
		if d.start != nil {
			t = d.start(r)
		} else {
			t = d.next(r, 0)
		}
		cal.Push(&Event{time: t, seq: seq, index: -1})
		seq++
	}
	for i := 0; i < rounds*n; i++ {
		e := cal.Pop()
		e.time = d.next(r, e.time)
		e.seq = seq
		seq++
		cal.Push(e)
	}
	return seq
}

// benchHold times hold operations on a settled calendar: one population
// turnover (n holds) before the timer starts replaces every event of the
// initial fill, so the bucket width is sampled from the steady schedule
// rather than from the fill, and a short run at a large n does not time
// the fill's width.
func benchHold(b *testing.B, mk func() Calendar, d holdDist, n int) {
	cal := mk()
	r := rng.New(7)
	seq := holdSteady(cal, d, n, 1, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cal.Pop()
		e.time = d.next(r, e.time)
		e.seq = seq
		seq++
		cal.Push(e)
	}
}

// BenchmarkHoldModel sweeps distribution x population x calendar.
func BenchmarkHoldModel(b *testing.B) {
	cals := []struct {
		name string
		mk   func() Calendar
	}{
		{"heap", func() Calendar { return NewHeapCalendar() }},
		{"bucket", func() Calendar { return NewBucketCalendar() }},
	}
	for _, d := range holdDists() {
		for _, n := range []int{1000, 100000, 1000000} {
			for _, c := range cals {
				b.Run(fmt.Sprintf("%s/n=%d/%s", d.name, n, c.name), func(b *testing.B) {
					benchHold(b, c.mk, d, n)
				})
			}
		}
	}
}

// On mpp256-tree's schedule (the tick shape at its ~10³ pending events) the
// calendar keeps its buckets nearly empty, so a push seldom walks a list.
// The test reads the buckets of a steady-state calendar directly, so the
// hot path carries no counters. The sampling tick's same-time timers share
// one bucket and count in the mean. Under Brown's rule (grow above two
// events per bucket, width three head gaps) this schedule leaves 3.2
// events per occupied bucket, and Brown's width at the sparse density
// 2.0; the 3/8-gap width leaves 1.5, and twice or four times that width
// 1.6 and 1.7.
func TestBucketOccupancyOnTickSchedule(t *testing.T) {
	var tick holdDist
	for _, d := range holdDists() {
		if d.name == "tick" {
			tick = d
		}
	}
	c := NewBucketCalendar()
	holdSteady(c, tick, 1000, 20, rng.New(7))
	occupied, events := 0, 0
	for i := range c.buckets {
		for e := c.buckets[i]; e != nil; e = e.next {
			events++
		}
		if c.buckets[i] != nil {
			occupied++
		}
	}
	if events != c.Len() {
		t.Fatalf("buckets hold %d events, Len %d", events, c.Len())
	}
	if mean := float64(events) / float64(occupied); mean > 1.75 {
		t.Fatalf("%.2f events per occupied bucket (%d events in %d of %d buckets), want <= 1.75",
			mean, events, occupied, len(c.buckets))
	}
}
