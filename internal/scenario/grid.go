package scenario

import (
	"fmt"

	"rocc/internal/core"
	"rocc/internal/forward"
)

// Cell is one operating point of a Grid: a fully specified scenario plus
// the identifiers the dashboards and experiment tables key on. The Label
// matches the row labels of the paper's factorial tables so grid-driven
// output is byte-identical to the historical ad-hoc loops.
type Cell struct {
	Group string // the paper artifact this point belongs to ("table4", "fig19", ...)
	ID    string // stable unique id, "<group>/<NN>" in iteration order
	Label string // human-readable factor settings
	Spec  Spec
}

// Grid is an ordered set of scenario operating points. Iteration order is
// the slice order and is part of the contract: experiment drivers derive
// per-cell seeds from the cell index, so two calls to the same constructor
// always produce identical grids, and any consumer that walks Cells in
// order reproduces the same runs.
type Grid struct {
	Name string
	// Factors names the 2^k design factors in doe standard order; nil for
	// non-factorial grids.
	Factors []string
	Cells   []Cell
}

// add appends a cell, assigning the next id within its group.
func (g *Grid) add(group, label string, cfg core.Config) {
	n := 0
	for _, c := range g.Cells {
		if c.Group == group {
			n++
		}
	}
	g.Cells = append(g.Cells, Cell{
		Group: group,
		ID:    fmt.Sprintf("%s/%02d", group, n),
		Label: label,
		Spec:  FromConfig(cfg),
	})
}

// append concatenates another grid's cells (ids keep their group numbering).
func (g *Grid) append(other Grid) {
	g.Cells = append(g.Cells, other.Cells...)
}

// Shared sweep axes of the paper's figures. Each call returns a fresh
// slice so callers may modify their copy. The analytic experiments
// (Figures 9-15) and the simulation experiments (Figures 17-28) plot the
// same axes; defining them once keeps the two pipelines comparable
// point-for-point.

// BatchAxis is the batch-size sweep of Figures 10 and 19.
func BatchAxis() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64, 128} }

// SamplingPeriodAxisMS is the doubling sampling-period sweep (ms) of
// Figures 9(b), 14, 18(b), and 26.
func SamplingPeriodAxisMS() []float64 { return []float64{1, 2, 4, 8, 16, 32, 64} }

// SMPSamplingPeriodAxisMS is the sampling-period sweep (ms) of the SMP
// panels, Figures 12 and 23.
func SMPSamplingPeriodAxisMS() []float64 { return []float64{1, 2, 5, 10, 20, 40, 64} }

// LocalSamplingPeriodAxisMS is the linear sampling-period sweep (ms) of
// the local-detail panel, Figure 17(a).
func LocalSamplingPeriodAxisMS() []float64 { return []float64{5, 10, 20, 30, 40, 50} }

// NodeAxis is the node-count sweep of Figures 18(a) and 22.
func NodeAxis() []float64 { return []float64{2, 4, 8, 16, 32} }

// AnalyticNodeAxis is the node-count sweep of Figure 9(a).
func AnalyticNodeAxis() []float64 { return []float64{2, 4, 8, 16, 24, 32} }

// MPPNodeAxis is the node-count sweep of Figures 15 and 27.
func MPPNodeAxis() []float64 { return []float64{2, 4, 8, 16, 32, 64, 128, 256} }

// AppProcsAxis is the application-process sweep of Figure 17(b).
func AppProcsAxis() []float64 { return []float64{1, 2, 4, 8, 16, 32} }

// factorial16 builds the sixteen rows of a 2^4 design in doe standard
// order from per-row config and label constructors.
func factorial16(g *Grid, group string, levels [4][2]float64,
	build func(pick func(f int) float64) (core.Config, string)) {
	for i := 0; i < 16; i++ {
		pick := func(f int) float64 { return levels[f][i>>f&1] }
		cfg, label := build(pick)
		g.add(group, label, cfg)
	}
}

// Table4Grid is the NOW 2^4 factorial design of Table 4 / Figure 16:
// A = nodes (5/50), B = sampling period (2/32 ms), C = forwarding policy
// (batch 1/128), D = application type.
func Table4Grid() Grid {
	g := Grid{Name: "table4",
		Factors: []string{"nodes", "sampling period", "forwarding policy", "application type"}}
	factorial16(&g, "table4", [4][2]float64{{5, 50}, {2000, 32000}, {1, 128}, {0, 1}},
		func(pick func(int) float64) (core.Config, string) {
			cfg := core.DefaultConfig()
			cfg.Arch = core.NOW
			cfg.Nodes = int(pick(0))
			cfg.SamplingPeriod = pick(1)
			batch := int(pick(2))
			if batch > 1 {
				cfg.Strategy = forward.NewFixedBF(batch)
			}
			app := core.ComputeIntensive
			if pick(3) > 0 {
				app = core.CommIntensive
			}
			cfg.Workload = app.Apply(core.DefaultWorkload())
			return cfg, fmt.Sprintf("n=%d sp=%.0fms b=%d %s",
				cfg.Nodes, cfg.SamplingPeriod/1000, batch, app)
		})
	return g
}

// Table5Grid is the SMP 2^4 factorial design of Table 5 / Figure 20:
// A = nodes (= app processes, 5/50), B = sampling period (1/32 ms),
// C = forwarding policy (batch 1/128), D = application type.
func Table5Grid() Grid {
	g := Grid{Name: "table5",
		Factors: []string{"nodes", "sampling period", "forwarding policy", "application type"}}
	factorial16(&g, "table5", [4][2]float64{{5, 50}, {1000, 32000}, {1, 128}, {0, 1}},
		func(pick func(int) float64) (core.Config, string) {
			cfg := core.DefaultConfig()
			cfg.Arch = core.SMP
			cfg.Nodes = int(pick(0))
			cfg.AppProcs = cfg.Nodes // paper: #app processes = #nodes
			cfg.SamplingPeriod = pick(1)
			batch := int(pick(2))
			if batch > 1 {
				cfg.Strategy = forward.NewFixedBF(batch)
			}
			app := core.ComputeIntensive
			if pick(3) > 0 {
				app = core.CommIntensive
			}
			cfg.Workload = app.Apply(core.DefaultWorkload())
			return cfg, fmt.Sprintf("n=%d sp=%.0fms b=%d %s",
				cfg.Nodes, cfg.SamplingPeriod/1000, batch, app)
		})
	return g
}

// Table6Grid is the MPP 2^4 factorial design of Table 6 / Figure 25:
// A = nodes (2/256), B = sampling period (5/50 ms), C = forwarding policy
// (batch 1/128), D = network configuration (direct/tree).
func Table6Grid() Grid {
	g := Grid{Name: "table6",
		Factors: []string{"nodes", "sampling period", "forwarding policy", "network configuration"}}
	factorial16(&g, "table6", [4][2]float64{{2, 256}, {5000, 50000}, {1, 128}, {0, 1}},
		func(pick func(int) float64) (core.Config, string) {
			cfg := core.DefaultConfig()
			cfg.Arch = core.MPP
			cfg.Nodes = int(pick(0))
			cfg.SamplingPeriod = pick(1)
			batch := int(pick(2))
			if batch > 1 {
				cfg.Strategy = forward.NewFixedBF(batch)
			}
			fwd := forward.Direct
			if pick(3) > 0 {
				fwd = forward.Tree
			}
			cfg.Forwarding = fwd
			return cfg, fmt.Sprintf("n=%d sp=%.0fms b=%d %s",
				cfg.Nodes, cfg.SamplingPeriod/1000, batch, fwd)
		})
	return g
}

// policyOf applies one of the two figure policies: CF, or BF with the
// given batch size when batch > 1.
func policyOf(cfg *core.Config, batch int) string {
	if batch > 1 {
		cfg.Strategy = forward.NewFixedBF(batch)
		return fmt.Sprintf("BF(%d)", batch)
	}
	cfg.Strategy = forward.NewCF()
	return "CF"
}

// PaperGrid covers the paper's NOW evaluation operating points — the
// Table 4 factorial plus every instrumented point of Figures 17-19, with
// the "typical configuration" baseline and the Table 3 validation point —
// in deterministic order. Uninstrumented (sampling period 0) series are
// excluded: the analytic equations require a positive sampling period.
func PaperGrid() Grid {
	g := Grid{Name: "paper"}

	// The Table 2 "typical configuration": 8-node NOW, 40 ms, CF.
	base := core.DefaultConfig()
	g.add("baseline", "n=8 sp=40ms CF (typical configuration)", base)

	// The Table 3 validation point: a single node, CF, 40 ms sampling.
	t3 := core.DefaultConfig()
	t3.Nodes = 1
	g.add("table3", "n=1 sp=40ms CF (validation)", t3)

	g.append(Table4Grid())

	// Figure 17(a): local detail, 1 node, 8 processes, sweep the sampling
	// period; CF vs BF(32).
	for _, batch := range []int{1, 32} {
		for _, spMS := range LocalSamplingPeriodAxisMS() {
			cfg := core.DefaultConfig()
			cfg.Nodes = 1
			cfg.AppProcs = 8
			cfg.SamplingPeriod = spMS * 1000
			pol := policyOf(&cfg, batch)
			g.add("fig17a", fmt.Sprintf("%s sp=%.0fms", pol, spMS), cfg)
		}
	}
	// Figure 17(b): local detail, 40 ms sampling, sweep the process count.
	for _, batch := range []int{1, 32} {
		for _, procs := range AppProcsAxis() {
			cfg := core.DefaultConfig()
			cfg.Nodes = 1
			cfg.AppProcs = int(procs)
			cfg.SamplingPeriod = 40000
			pol := policyOf(&cfg, batch)
			g.add("fig17b", fmt.Sprintf("%s procs=%d", pol, cfg.AppProcs), cfg)
		}
	}
	// Figure 18(a): global detail, 40 ms sampling, sweep the node count.
	for _, batch := range []int{1, 32} {
		for _, nodes := range NodeAxis() {
			cfg := core.DefaultConfig()
			cfg.Nodes = int(nodes)
			pol := policyOf(&cfg, batch)
			g.add("fig18a", fmt.Sprintf("%s n=%d", pol, cfg.Nodes), cfg)
		}
	}
	// Figure 18(b): global detail, 8 nodes, sweep the sampling period.
	for _, batch := range []int{1, 32} {
		for _, spMS := range SamplingPeriodAxisMS() {
			cfg := core.DefaultConfig()
			cfg.SamplingPeriod = spMS * 1000
			pol := policyOf(&cfg, batch)
			g.add("fig18b", fmt.Sprintf("%s sp=%.0fms", pol, spMS), cfg)
		}
	}
	// Figure 19: batch-size sweep at three sampling periods.
	for _, spMS := range []float64{1, 40, 64} {
		for _, batch := range BatchAxis() {
			cfg := core.DefaultConfig()
			cfg.SamplingPeriod = spMS * 1000
			policyOf(&cfg, int(batch))
			g.add("fig19", fmt.Sprintf("SP=%.0fms b=%d", spMS, int(batch)), cfg)
		}
	}
	return g
}

// SmokeGrid is the small cross-validation grid gated in CI: the baseline,
// the Table 3 validation point, and the Table 4 factorial.
func SmokeGrid() Grid {
	g := Grid{Name: "smoke"}
	p := PaperGrid()
	for _, c := range p.Cells {
		if c.Group == "baseline" || c.Group == "table3" || c.Group == "table4" {
			g.Cells = append(g.Cells, c)
		}
	}
	return g
}

// FullGrid extends PaperGrid with the SMP and MPP factorial designs
// (Tables 5 and 6), adding the architecture axis to the error surface.
func FullGrid() Grid {
	g := Grid{Name: "full"}
	g.append(PaperGrid())
	g.append(Table5Grid())
	g.append(Table6Grid())
	return g
}
