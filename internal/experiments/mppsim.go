package experiments

import (
	"io"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/scenario"
)

func init() {
	register("table6", "MPP: 2^4·r factorial simulation results", factorialTable(mppFactorialRows,
		"Table 6: MPP simulation results", "Pd CPU time/node (sec)"))
	register("fig25", "MPP: allocation of variation", factorialAllocation(mppFactorialRows,
		"Figure 25 (MPP)", "Pd CPU time"))
	register("fig26", "MPP: four metrics over sampling period, direct vs tree (256 nodes)", runFig26)
	register("fig27", "MPP: four metrics over number of nodes, direct vs tree", runFig27)
	register("fig28", "MPP: effect of barrier-operation frequency (256 nodes)", runFig28)
}

// mppFactorialRows materializes the Table 6 design from the shared
// scenario grid (A = nodes, B = sampling period, C = policy, D = network
// configuration).
func mppFactorialRows() ([]string, []factorialRow, error) {
	g := scenario.Table6Grid()
	rows, err := gridRows(g)
	return g.Factors, rows, err
}

// mppVariants builds direct / tree / uninstrumented series.
func mppVariants(nodes int, modify func(cfg *core.Config, x float64)) []simVariant {
	mk := func(fwd forward.Config, sampling bool) func(float64) core.Config {
		return func(x float64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Arch = core.MPP
			cfg.Nodes = nodes
			cfg.Strategy = forward.NewFixedBF(32)
			cfg.SamplingPeriod = 40000
			cfg.Forwarding = fwd
			modify(&cfg, x)
			if !sampling {
				cfg.SamplingPeriod = 0
				cfg.Forwarding = forward.Direct
			}
			return cfg
		}
	}
	return []simVariant{
		{"direct", mk(forward.Direct, true)},
		{"tree", mk(forward.Tree, true)},
		{"uninstrumented", mk(forward.Direct, false)},
	}
}

func runFig26(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return simSweep(w, opt, "Figure 26: MPP, 256 nodes, BF", "sampling_period_ms",
		scenario.SamplingPeriodAxisMS(),
		mppVariants(256, func(cfg *core.Config, x float64) {
			if cfg.SamplingPeriod > 0 {
				cfg.SamplingPeriod = x * 1000
			}
		}))
}

func runFig27(w io.Writer, opt Options) error {
	opt = opt.normalized()
	return simSweep(w, opt, "Figure 27: MPP, SP = 40 ms, BF", "nodes",
		scenario.MPPNodeAxis(),
		mppVariants(0, func(cfg *core.Config, x float64) { cfg.Nodes = int(x) }))
}

func runFig28(w io.Writer, opt Options) error {
	opt = opt.normalized()
	// Barrier period in msec, logarithmic axis as in the paper.
	periods := []float64{0.1, 1, 10, 100, 1000, 10000}
	if err := simSweep(w, opt, "Figure 28: MPP, 256 nodes, SP = 40 ms, BF", "barrier_period_ms",
		periods,
		mppVariants(256, func(cfg *core.Config, x float64) { cfg.BarrierPeriod = x * 1000 })); err != nil {
		return err
	}
	// Supplementary panel at a contention-limited operating point (CF,
	// 5 ms sampling): here the daemon competes with the application for
	// the CPU, so frequent barriers — which idle the application — make
	// the daemon's work complete sooner, the §4.4.3 mechanism.
	return simSweep(w, opt, "Figure 28 (supplement): CF, 4 procs/node, SP = 1 ms — contention-limited daemon",
		"barrier_period_ms", periods,
		[]simVariant{{"direct-CF", func(x float64) core.Config {
			cfg := core.DefaultConfig()
			cfg.Arch = core.MPP
			cfg.Nodes = 16
			cfg.AppProcs = 4
			cfg.SamplingPeriod = 1000
			cfg.PipeCapacity = 16
			cfg.BarrierPeriod = x * 1000
			return cfg
		}}})
}
