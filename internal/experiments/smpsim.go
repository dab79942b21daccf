package experiments

import (
	"io"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/report"
	"rocc/internal/scenario"
)

func init() {
	register("table5", "SMP: 2^4·r factorial simulation results", factorialTable(smpFactorialRows,
		"Table 5: SMP simulation results (number of app processes = number of nodes)", "IS CPU time/node (sec)"))
	register("fig20", "SMP: allocation of variation", factorialAllocation(smpFactorialRows,
		"Figure 20 (SMP)", "IS CPU time"))
	register("fig21", "SMP: daemon throughput vs CPUs, 1-4 daemons, CF vs BF", runFig21)
	register("fig22", "SMP: four metrics over number of nodes, 1-4 daemons", runFig22)
	register("fig23", "SMP: four metrics over sampling period, 1-4 daemons", runFig23)
	register("fig24", "SMP: four metrics over number of application processes, 1-4 daemons", runFig24)
}

// smpFactorialRows materializes the Table 5 design from the shared
// scenario grid (A = nodes = app processes, B = sampling period,
// C = policy, D = app type).
func smpFactorialRows() ([]string, []factorialRow, error) {
	g := scenario.Table5Grid()
	rows, err := gridRows(g)
	return g.Factors, rows, err
}

func runFig21(w io.Writer, opt Options) error {
	opt = opt.normalized()
	cpus := []float64{1, 2, 4, 8, 12, 16}
	variants := func(s forward.Strategy) []simVariant {
		var out []simVariant
		for pds := 1; pds <= 4; pds++ {
			pds := pds
			out = append(out, simVariant{
				name: smpName(pds),
				cfg: func(x float64) core.Config {
					cfg := core.DefaultConfig()
					cfg.Arch = core.SMP
					cfg.Nodes = int(x)
					cfg.AppProcs = int(x)
					if pds > cfg.AppProcs {
						// Cannot have more daemons than pipes; clamp like
						// the paper's setup (extra daemons would idle).
						cfg.Pds = cfg.AppProcs
					} else {
						cfg.Pds = pds
					}
					cfg.Strategy = s
					cfg.SamplingPeriod = 40000
					return cfg
				},
			})
		}
		return out
	}
	panels := []struct {
		title string
		vs    []simVariant
	}{
		{"Figure 21(a): CF policy (SP = 40 ms)", variants(forward.NewCF())},
		{"Figure 21(b): BF policy (batch = 32)", variants(forward.NewFixedBF(32))},
	}
	for _, p := range panels {
		results, err := runGrid(opt, cpus, p.vs)
		if err != nil {
			return err
		}
		fig := report.NewFigure(p.title, "cpus", "Throughput_pd (samples/sec)", cpus)
		for vi, v := range p.vs {
			ys := make([]float64, len(cpus))
			for xi := range cpus {
				ys[xi] = results[vi][xi].PdThroughputPerSec
			}
			if err := fig.Add(v.name, ys); err != nil {
				return err
			}
		}
		if err := renderFigure(w, opt, fig); err != nil {
			return err
		}
	}
	return nil
}

// smpSimVariants builds the 1-4 daemon series plus an uninstrumented
// baseline for one SMP panel.
func smpSimVariants(s forward.Strategy, modify func(cfg *core.Config, x float64)) []simVariant {
	var out []simVariant
	for pds := 1; pds <= 4; pds++ {
		pds := pds
		out = append(out, simVariant{
			name: smpName(pds),
			cfg: func(x float64) core.Config {
				cfg := core.DefaultConfig()
				cfg.Arch = core.SMP
				cfg.Nodes = 16
				cfg.AppProcs = 32
				cfg.Pds = pds
				cfg.Strategy = s
				cfg.SamplingPeriod = 40000
				modify(&cfg, x)
				return cfg
			},
		})
	}
	out = append(out, simVariant{
		name: "uninstrumented",
		cfg: func(x float64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Arch = core.SMP
			cfg.Nodes = 16
			cfg.AppProcs = 32
			cfg.SamplingPeriod = 40000
			modify(&cfg, x)
			cfg.SamplingPeriod = 0
			return cfg
		},
	})
	return out
}

// smpPanelPair renders the CF and BF versions of one SMP figure.
func smpPanelPair(w io.Writer, opt Options, figName, xlabel string, xs []float64,
	modify func(cfg *core.Config, x float64)) error {
	if err := simSweep(w, opt, figName+"(a): CF policy", xlabel, xs,
		smpSimVariants(forward.NewCF(), modify)); err != nil {
		return err
	}
	return simSweep(w, opt, figName+"(b): BF policy (batch 32)", xlabel, xs,
		smpSimVariants(forward.NewFixedBF(32), modify))
}

func runFig22(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return smpPanelPair(w, opt, "Figure 22", "nodes",
		scenario.NodeAxis(),
		func(cfg *core.Config, x float64) { cfg.Nodes = int(x) })
}

func runFig23(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return smpPanelPair(w, opt, "Figure 23", "sampling_period_ms",
		scenario.SMPSamplingPeriodAxisMS(),
		func(cfg *core.Config, x float64) {
			if cfg.SamplingPeriod > 0 {
				cfg.SamplingPeriod = x * 1000
			}
		})
}

func runFig24(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return smpPanelPair(w, opt, "Figure 24", "app_processes",
		[]float64{4, 8, 16, 32, 64},
		func(cfg *core.Config, x float64) { cfg.AppProcs = int(x) })
}
