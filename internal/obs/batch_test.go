package obs

import (
	"testing"

	"rocc/internal/des"
	"rocc/internal/procs"
)

// Steady-state Observe locks, looks the bucket up in the start table and
// updates the totals in place — zero allocations per observation.
func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := procs.NewLatencyHistogram()
	v := 100.0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 13.7
	})
	if allocs > 0 {
		t.Fatalf("Observe allocated %.2f objects per call", allocs)
	}
}

// Atomic counters are the per-event write path when metrics are enabled;
// they must stay allocation-free now that the live exporter reads them
// concurrently.
func TestCounterDoesNotAllocate(t *testing.T) {
	m := NewMetrics(procs.NewLatencyHistogram())
	allocs := testing.AllocsPerRun(1000, func() {
		m.Events.Add(1)
		m.Generated.Add(1)
		_ = m.Events.Value()
	})
	if allocs > 0 {
		t.Fatalf("counter hot path allocated %.2f objects per call", allocs)
	}
}

// Snapshot copies the histogram (it allocates), but taking one must not
// disturb the zero-alloc property of subsequent observations — the
// scrape path and the hot path share only the histogram mutex.
func TestObserveStaysAllocationFreeAfterSnapshot(t *testing.T) {
	h := procs.NewLatencyHistogram()
	for i := 0; i < 200; i++ {
		h.Observe(float64(100 + i))
	}
	_ = h.Snapshot()
	v := 100.0
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 13.7
	})
	if allocs > 0 {
		t.Fatalf("Observe allocated %.2f objects per call after Snapshot", allocs)
	}
}

// A sampler whose series were sized for the run must not allocate at
// steady-state ticks: T/V appends stay within capacity and the reschedule
// reuses one closure.
func TestSamplerTickDoesNotAllocate(t *testing.T) {
	sim := des.New()
	s := NewSampler(sim, 10)
	s.SetExpectedTicks(5000)
	m := NewMetrics(procs.NewLatencyHistogram())
	for i := 0; i < 4; i++ {
		s.Probe(m, "probe", func(tUS float64) float64 { return tUS })
	}
	s.Start()
	sim.Run(100) // warm the engine's event free list
	allocs := testing.AllocsPerRun(500, func() {
		sim.Step()
	})
	if allocs > 0 {
		t.Fatalf("sampler tick allocated %.2f objects per tick", allocs)
	}
}
