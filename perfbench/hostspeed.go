package main

import (
	"runtime"
	"sync"
	"time"
)

// The machines this benchmark runs on are shared: for minutes at a time
// other tenants slow every timing by up to 2x, which no run length
// averages out, and at times a second vCPU is as good as absent. Each
// timed unit of work is therefore bracketed by a fixed reference
// computation, run on as many goroutines as the work keeps busy, and its
// wall time is scaled by how much slower than nominal the reference ran
// around it. The reference is the benchmark's own code, independent of
// the simulator, so a change to the simulator moves the scaled time as it
// would move the wall time on a host running at nominal speed.

// refNominal fixes the scale: a scaled time is the wall time on a host
// where the reference takes refNominal. On a 2-vCPU x86-64 virtual machine
// it took 4-6.5 ms.
const refNominal = 5 * time.Millisecond

// Reference sizes: a binary-heap event loop over refEvents pending events,
// with one random read-modify-write in a refTable-entry table per step
// (about 0.5 MiB of state per goroutine).
const (
	refSteps  = 40000
	refEvents = 1024
	refTable  = 1 << 16
)

// refState is one goroutine's reference state, allocated once so the timed
// reference allocates nothing and never waits on the garbage collector.
type refState struct {
	t     [refEvents]float64
	heap  [refEvents]int32
	table [refTable]uint64
	sink  uint64
}

// hostClock runs the reference and converts wall times to scaled times.
type hostClock struct {
	states []*refState
	raw    []time.Duration // every reference run, in order
}

// newHostClock returns a clock whose reference runs on the given number of
// goroutines: one per CPU the timed work keeps busy.
func newHostClock(workers int) *hostClock {
	h := &hostClock{}
	for i := 0; i < workers; i++ {
		h.states = append(h.states, &refState{})
	}
	return h
}

// reference collects the garbage the last unit of work left (so no
// collection overlaps the reference), then runs the reference on every
// goroutine at once and returns its wall time.
func (h *hostClock) reference() time.Duration {
	runtime.GC()
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, s := range h.states {
		wg.Add(1)
		go func(s *refState) {
			defer wg.Done()
			s.run()
		}(s)
	}
	wg.Wait()
	d := time.Since(t0)
	h.raw = append(h.raw, d)
	return d
}

// scaled converts the wall time d of work bracketed by the reference runs
// before and after it to a scaled time.
func scaled(d, before, after time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(2*refNominal) / float64(before+after))
}

// run is the reference: a hold-model event loop. Every step pops the
// earliest event, updates one table entry chosen by it and reschedules it.
func (s *refState) run() {
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range s.t {
		s.t[i] = float64(rnd()>>40) / 1e3
		s.heap[i] = int32(i)
	}
	n := len(s.heap)
	less := func(a, b int) bool { return s.t[s.heap[a]] < s.t[s.heap[b]] }
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= n {
				return
			}
			if r := l + 1; r < n && less(r, l) {
				l = r
			}
			if !less(l, i) {
				return
			}
			s.heap[i], s.heap[l] = s.heap[l], s.heap[i]
			i = l
		}
	}
	for i := n/2 - 1; i >= 0; i-- {
		down(i)
	}
	for k := 0; k < refSteps; k++ {
		e := s.heap[0]
		r := rnd()
		s.table[(uint64(e)*0x9E3779B1^r)%refTable] += uint64(e)
		s.t[e] += float64(r>>44) / 1e3
		down(0)
	}
	s.sink += s.table[x%refTable]
}
