package core

import (
	"math"
	"testing"

	"rocc/internal/forward"
	"rocc/internal/obs"
	"rocc/internal/resources"
	"rocc/internal/stats"
)

// latencyRecorder keeps every delivered sample's latency; its embedded
// collector, with nothing attached, ignores every other hook.
type latencyRecorder struct {
	obs.Collector
	lats []float64
}

func (r *latencyRecorder) MessageDelivered(t float64, batch []resources.Sample, hops int) {
	for _, s := range batch {
		r.lats = append(r.lats, t-s.GenTime)
	}
}

// The Result's percentiles come from the main process's eighth-octave
// histogram. Against the exact type-7 order statistic of every delivered
// latency they must hold P50 and P95 within 1.5% and P99 within 3%, on
// the pinned cells with at least 1000 deliveries and on two saturated
// Table 4 corners (n=50, 2 ms sampling, CF and BF).
func TestLatencyQuantilesMatchExactOrderStatistic(t *testing.T) {
	cells := digestPinCells()
	corner := func(s forward.Strategy) Config {
		cfg := DefaultConfig()
		cfg.Nodes = 50
		cfg.SamplingPeriod = 2000
		cfg.Strategy = s
		cfg.Duration = 2e6
		return cfg
	}
	cfgs := map[string]Config{
		"now32-cf-direct":      cells["now32-cf-direct"].cfg,
		"now16-abf-chaos":      cells["now16-abf-chaos"].cfg,
		"mpp8-tree-retransmit": cells["mpp8-tree-retransmit"].cfg,
		"now50-2ms-cf":         corner(forward.NewCF()),
		"now50-2ms-bf128":      corner(forward.NewFixedBF(128)),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := &latencyRecorder{}
			m.Main.Obs = rec
			res := m.Run()
			if len(rec.lats) != res.SamplesReceived || len(rec.lats) < 1000 {
				t.Fatalf("recorded %d latencies, Result received %d (need >= 1000)", len(rec.lats), res.SamplesReceived)
			}
			for _, q := range []struct {
				p, got, tol float64
			}{
				{0.50, res.MonitoringLatencyP50Sec, 0.015},
				{0.95, res.MonitoringLatencyP95Sec, 0.015},
				{0.99, res.MonitoringLatencyP99Sec, 0.03},
			} {
				exact, err := stats.Quantile(rec.lats, q.p)
				if err != nil {
					t.Fatal(err)
				}
				rel := q.got*1e6/exact - 1
				t.Logf("P%g: histogram %.6g s, exact %.6g s (%+.2f%%)", q.p*100, q.got, exact/1e6, rel*100)
				if math.Abs(rel) > q.tol {
					t.Errorf("P%g = %g s, exact %g s: off by %.2f%%, bound %.1f%%",
						q.p*100, q.got, exact/1e6, rel*100, q.tol*100)
				}
			}
		})
	}
}
