package experiments

import (
	"io"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/scenario"
)

func init() {
	register("table4", "NOW: 2^4·r factorial simulation results", factorialTable(nowFactorialRows,
		"Table 4: NOW simulation results (means of r replications, 90% CI half-widths)", "Pd CPU time/node (sec)"))
	register("fig16", "NOW: allocation of variation (principal factors)", factorialAllocation(nowFactorialRows,
		"Figure 16 (NOW)", "Pd CPU time"))
	register("fig17", "NOW local: Pd CPU time and forwarding throughput, CF vs BF", runFig17)
	register("fig18", "NOW global: four metrics over nodes and sampling period, CF vs BF", runFig18)
	register("fig19", "NOW: batch-size sweep (knee of the latency curve)", runFig19)
}

// nowFactorialRows materializes the Table 4 design (doe standard order)
// from the shared scenario grid, so the factorial table, the figure-16
// allocation, and the cross-validation dashboard all run the exact same
// operating points.
func nowFactorialRows() ([]string, []factorialRow, error) {
	g := scenario.Table4Grid()
	rows, err := gridRows(g)
	return g.Factors, rows, err
}

func runFig17(w io.Writer, opt Options) error {
	opt = opt.normalized()
	localVariants := func(procs int, sp float64) []simVariant {
		mk := func(s forward.Strategy) func(float64) core.Config {
			return func(x float64) core.Config {
				cfg := core.DefaultConfig()
				cfg.Nodes = 1 // local level of detail: a single node
				cfg.Strategy = s
				if procs < 0 { // x is the process count
					cfg.AppProcs = int(x)
					cfg.SamplingPeriod = sp
				} else { // x is the sampling period in ms
					cfg.AppProcs = procs
					cfg.SamplingPeriod = x * 1000
				}
				return cfg
			}
		}
		return []simVariant{
			{"CF", mk(forward.NewCF())},
			{"BF(32)", mk(forward.NewFixedBF(32))},
		}
	}
	panels := []struct {
		title  string
		xlabel string
		xs     []float64
		vs     []simVariant
	}{
		{"Figure 17(a): 8 application processes", "sampling_period_ms",
			scenario.LocalSamplingPeriodAxisMS(), localVariants(8, 0)},
		{"Figure 17(b): sampling period = 40 ms", "app_processes",
			scenario.AppProcsAxis(), localVariants(-1, 40000)},
	}
	metrics := []struct {
		name string
		get  core.Metric
	}{
		{"CPU time (sec)", core.MetricPdCPUTime},
		{"Throughput (samples/sec)", core.MetricPdThroughput},
	}
	for _, p := range panels {
		results, err := runGrid(opt, p.xs, p.vs)
		if err != nil {
			return err
		}
		for _, metric := range metrics {
			fig := report.NewFigure(p.title, p.xlabel, metric.name, p.xs)
			for vi, v := range p.vs {
				ys := make([]float64, len(p.xs))
				for xi := range p.xs {
					ys[xi] = metric.get(results[vi][xi])
				}
				if err := fig.Add(v.name, ys); err != nil {
					return err
				}
			}
			if err := renderFigure(w, opt, fig); err != nil {
				return err
			}
		}
	}
	return nil
}

// nowGlobalVariants builds the CF / BF / uninstrumented series.
func nowGlobalVariants(modify func(cfg *core.Config, x float64)) []simVariant {
	mk := func(s forward.Strategy, sp float64) func(float64) core.Config {
		return func(x float64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Strategy = s
			cfg.SamplingPeriod = sp
			modify(&cfg, x)
			return cfg
		}
	}
	return []simVariant{
		{"CF", mk(forward.NewCF(), 40000)},
		{"BF(32)", mk(forward.NewFixedBF(32), 40000)},
		{"uninstrumented", func(x float64) core.Config {
			cfg := core.DefaultConfig()
			cfg.SamplingPeriod = 0
			modify(&cfg, x)
			cfg.SamplingPeriod = 0
			return cfg
		}},
	}
}

func runFig18(w io.Writer, opt Options) error {
	opt = opt.normalized()
	if err := simSweep(w, opt, "Figure 18(a): sampling period = 40 ms", "nodes",
		scenario.NodeAxis(),
		nowGlobalVariants(func(cfg *core.Config, x float64) { cfg.Nodes = int(x) })); err != nil {
		return err
	}
	return simSweep(w, opt, "Figure 18(b): number of nodes = 8", "sampling_period_ms",
		scenario.SamplingPeriodAxisMS(),
		nowGlobalVariants(func(cfg *core.Config, x float64) {
			if cfg.SamplingPeriod > 0 {
				cfg.SamplingPeriod = x * 1000
			}
		}))
}

func runFig19(w io.Writer, opt Options) error {
	opt = opt.normalized()
	batches := scenario.BatchAxis()
	mk := func(spMS float64) func(float64) core.Config {
		return func(b float64) core.Config {
			cfg := core.DefaultConfig()
			cfg.SamplingPeriod = spMS * 1000
			if b > 1 {
				cfg.Strategy = forward.NewFixedBF(int(b))
			}
			return cfg
		}
	}
	return simSweep(w, opt, "Figure 19: batch-size sweep (8 nodes)", "batch_size", batches,
		[]simVariant{
			{"SP=1ms", mk(1)},
			{"SP=40ms", mk(40)},
			{"SP=64ms", mk(64)},
		})
}
