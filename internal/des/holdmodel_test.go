package des

import (
	"fmt"
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
type holdDist struct {
	name string
	draw func(r *rng.Stream) float64
}

func holdDists() []holdDist {
	return []holdDist{
		{"exp", func(r *rng.Stream) float64 { return r.Exp(100) }},
		{"bimodal", func(r *rng.Stream) float64 {
			if r.Bernoulli(0.1) {
				return r.Exp(10000)
			}
			return r.Exp(100)
		}},
		{"burst", func(r *rng.Stream) float64 {
			if r.Bernoulli(0.05) {
				return r.Exp(5000)
			}
			return r.Exp(1)
		}},
		{"sync", func(*rng.Stream) float64 { return 1000 }},
	}
}

func benchHold(b *testing.B, mk func() Calendar, d holdDist, n int) {
	cal := mk()
	r := rng.New(7)
	var seq uint64
	for i := 0; i < n; i++ {
		cal.Push(&Event{time: d.draw(r), seq: seq, index: -1})
		seq++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cal.Pop()
		e.time += d.draw(r)
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
