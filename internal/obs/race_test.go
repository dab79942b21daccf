package obs_test

import (
	"math"
	"sync"
	"testing"

	"rocc/internal/des"
	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/resources"
)

// The live telemetry plane scrapes a run's metrics from an HTTP handler
// while the simulation goroutine is still mutating them. This test is
// the -race referee for that contract: one goroutine hammers counters,
// gauges, the latency histogram, and a sampler series exactly the way a
// running model does (the events counter is stored from the simulator's
// dispatch count at each sampler tick), while readers concurrently take
// the snapshot-style reads the exporter uses (Value, Snapshot, Quantile,
// Last). It proves nothing about values — only that no access is an
// unsynchronized data race.
func TestConcurrentSnapshotWhileMutating(t *testing.T) {
	m := obs.NewMetrics(procs.NewLatencyHistogram())
	sim := des.New()
	sampler := obs.NewSampler(sim, 1)
	sampler.CountEvents(m)
	i := 0
	ser := sampler.Probe(m, "pipe_depth", func(float64) float64 { return float64(i % 7) })
	sampler.Start()

	const iters = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the "simulation" writer
		defer wg.Done()
		for ; i < iters; i++ {
			m.Generated.Add(2)
			m.Latency.Observe(float64(100 + i%1000))
			sim.Step() // one sampler tick: appends to ser
			if i%1024 == 0 {
				m.Reset() // warmup removal can overlap a scrape too
			}
		}
	}()

	for r := 0; r < 2; r++ { // concurrent scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				for _, c := range m.Counters() {
					_ = c.Value()
				}
				snap := m.Latency.Snapshot()
				if snap.Total > 0 && (math.IsNaN(snap.Sum) || snap.Max < snap.Min) {
					t.Error("inconsistent histogram snapshot")
					return
				}
				_ = m.Latency.Quantile(0.99)
				if _, _, ok := ser.Last(); ok {
					_ = ser.Len()
				}
			}
		}()
	}
	wg.Wait()

	if m.Events.Value() == 0 {
		t.Fatal("writer made no progress")
	}
}

// The provenance engine's six stage histograms share one lock, taken once
// per delivered message. This is the -race referee for that sharing: one
// goroutine drives full sample lifecycles through a prov.Engine, with a
// warmup reset mid-run, while two scrapers snapshot and query every stage
// histogram on its own, as the live exporter does.
func TestConcurrentStageScrapeWhileDelivering(t *testing.T) {
	e := prov.NewEngine()
	const iters = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the simulation goroutine
		defer wg.Done()
		batch := make([]resources.Sample, 1)
		for seq := 0; seq < iters; seq++ {
			t0 := float64(10 * seq)
			s := resources.Sample{GenTime: t0, Node: seq % 3, Proc: seq % 2, Seq: seq}
			e.PipePut(t0, s)
			e.SampleGenerated(t0, s, false)
			e.PipeGet(t0+2, s)
			batch[0] = s
			e.BatchForwarded(s.Node, t0+3, batch, 1)
			e.BatchDelivered(t0+7, batch)
			if seq == iters/2 {
				e.ResetAccounting()
			}
		}
	}()

	for r := 0; r < 2; r++ { // concurrent scrapers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters/10; i++ {
				for st := prov.Stage(0); st < prov.NumStages; st++ {
					h := e.Histogram(st)
					snap := h.Snapshot()
					if snap.Total > 0 && (math.IsNaN(snap.Sum) || snap.Max < snap.Min) {
						t.Error("inconsistent stage snapshot")
						return
					}
					_ = h.Quantile(0.99)
				}
			}
		}()
	}
	wg.Wait()

	if got := e.Histogram(prov.StageNetworkTransit).Count(); got != iters-iters/2-1 {
		t.Fatalf("network-transit count %d after reset, want %d", got, iters-iters/2-1)
	}
}
