package experiments

import (
	"fmt"
	"io"

	"rocc/internal/core"
	"rocc/internal/doe"
	"rocc/internal/par"
	"rocc/internal/report"
	"rocc/internal/scenario"
	"rocc/internal/stats"
)

// simMetrics are the four panels of the simulation figures (18, 19, 22-24,
// 26-28).
var simMetrics = []struct {
	name string
	get  core.Metric
}{
	{"Pd CPU utilization/node (%)", core.MetricPdCPUUtil},
	{"Paradyn CPU utilization (%)", core.MetricMainCPUUtil},
	{"Appl. CPU utilization/node (%)", core.MetricAppCPUUtil},
	{"Monitoring latency/samp. (sec)", core.MetricLatency},
}

// simVariant is one line of a simulation figure.
type simVariant struct {
	name string
	cfg  func(x float64) core.Config
}

// scaled returns cfg at the option scale: the option's duration and
// calendar, and its seed when cfg carries none.
func scaled(cfg core.Config, opt Options) core.Config {
	cfg.Duration = opt.DurationUS
	cfg.Calendar = opt.Calendar
	if cfg.Seed == 0 {
		cfg.Seed = opt.Seed
	}
	return cfg
}

// runOne runs a single replication of cfg at the option scale.
func runOne(cfg core.Config, opt Options) (core.Result, error) {
	return core.Simulate(scaled(cfg, opt))
}

// runGrid executes the variants × xs simulation grid, fanning the
// share-nothing runs across opt.Parallel workers, and returns the results
// indexed [variant][x]. Collection order is fixed by the grid, not by
// completion, so the grid is deterministic at any pool size.
func runGrid(opt Options, xs []float64, variants []simVariant) ([][]core.Result, error) {
	type point struct{ vi, xi int }
	grid := make([]point, 0, len(variants)*len(xs))
	for vi := range variants {
		for xi := range xs {
			grid = append(grid, point{vi, xi})
		}
	}
	flat, err := par.Map(opt.Parallel, grid, func(_ int, p point) (core.Result, error) {
		res, err := runOne(variants[p.vi].cfg(xs[p.xi]), opt)
		if err != nil {
			return core.Result{}, fmt.Errorf("%s @ %v: %w", variants[p.vi].name, xs[p.xi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	results := make([][]core.Result, len(variants))
	for vi := range variants {
		results[vi] = flat[vi*len(xs) : (vi+1)*len(xs)]
	}
	return results, nil
}

// simSweep renders one figure per metric across the x values and variants
// (single replication per point; the factorial tables carry the
// replicated, CI-bearing runs).
func simSweep(w io.Writer, opt Options, title, xlabel string, xs []float64, variants []simVariant) error {
	// Cache runs: every metric reuses the same simulations.
	results, err := runGrid(opt, xs, variants)
	if err != nil {
		return err
	}
	for _, metric := range simMetrics {
		fig := report.NewFigure(title, xlabel, metric.name, xs)
		for vi, v := range variants {
			ys := make([]float64, len(xs))
			for xi := range xs {
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
	return nil
}

// factorialRow is one run of a 2^k design.
type factorialRow struct {
	label string
	cfg   core.Config
}

// gridRows materializes a scenario grid's cells as factorial rows, in
// grid order (which fixes the SeedStreamFactorial row indices).
func gridRows(g scenario.Grid) ([]factorialRow, error) {
	rows := make([]factorialRow, 0, len(g.Cells))
	for _, cell := range g.Cells {
		cfg, err := cell.Spec.Config()
		if err != nil {
			return nil, fmt.Errorf("grid %s cell %s: %w", g.Name, cell.ID, err)
		}
		rows = append(rows, factorialRow{label: cell.Label, cfg: cfg})
	}
	return rows, nil
}

// runFactorial executes the 2^k·r design and returns, per row, the
// replicate values of the two reported metrics (direct overhead and
// monitoring latency), in the standard order expected by doe.Analyze2KR.
//
// The rows × reps grid is flattened into one work list so all runs fan
// out together across opt.Parallel workers. Seeds chain through
// core.DeriveSeed exactly as the per-row RunReplications path would
// derive them (row seed from SeedStreamFactorial, replication seeds from
// the row seed), so the flattened fan-out reproduces that path's results
// bit for bit.
func runFactorial(rows []factorialRow, opt Options, overhead, latency core.Metric) (ov, lat [][]float64, err error) {
	reps := opt.Reps
	if reps < 1 {
		reps = 1
	}
	type job struct {
		row int
		cfg core.Config
	}
	jobs := make([]job, 0, len(rows)*reps)
	for i, row := range rows {
		cfg := row.cfg
		cfg.Duration = opt.DurationUS
		cfg.Calendar = opt.Calendar
		for _, seed := range core.FactorialReplicationSeeds(opt.Seed, i, reps) {
			c := cfg
			c.Seed = seed
			jobs = append(jobs, job{row: i, cfg: c})
		}
	}
	flat, err := par.Map(opt.Parallel, jobs, func(_ int, j job) (core.Result, error) {
		res, err := core.Simulate(j.cfg)
		if err != nil {
			return core.Result{}, fmt.Errorf("row %s: %w", rows[j.row].label, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	ov = make([][]float64, len(rows))
	lat = make([][]float64, len(rows))
	for k, j := range jobs {
		ov[j.row] = append(ov[j.row], overhead(flat[k]))
		lat[j.row] = append(lat[j.row], latency(flat[k]))
	}
	return ov, lat, nil
}

// factorialTable returns the runner of a factorial results table (Tables
// 4-6): per design row, the means and 90% CI half-widths of the direct
// overhead and the monitoring latency over the replications.
func factorialTable(design func() ([]string, []factorialRow, error), title, overheadName string) func(io.Writer, Options) error {
	return func(w io.Writer, opt Options) error {
		opt = opt.normalized()
		_, rows, err := design()
		if err != nil {
			return err
		}
		ov, lat, err := runFactorial(rows, opt, core.MetricPdCPUTime, core.MetricLatency)
		if err != nil {
			return err
		}
		t := report.NewTable(title, "configuration", overheadName, "±", "latency/sample (msec)", "±")
		for i, row := range rows {
			ovCI := ciOf(ov[i])
			latCI := ciOf(lat[i])
			t.AddRow(row.label,
				report.F(ovCI.Mean), report.F(ovCI.HalfWidth),
				report.F(latCI.Mean*1000), report.F(latCI.HalfWidth*1000))
		}
		return t.Render(w)
	}
}

func ciOf(xs []float64) stats.ConfidenceInterval {
	if len(xs) < 2 {
		return stats.ConfidenceInterval{Mean: stats.MeanOf(xs)}
	}
	ci, err := stats.MeanCI(xs, 0.90)
	if err != nil {
		return stats.ConfidenceInterval{Mean: stats.MeanOf(xs)}
	}
	return ci
}

// factorialAllocation returns the runner of an allocation-of-variation
// figure (the pie-chart percentages of Figures 16, 20, and 25) over a
// factorial design, for monitoring latency and then the direct overhead.
func factorialAllocation(design func() ([]string, []factorialRow, error), title, overheadName string) func(io.Writer, Options) error {
	return func(w io.Writer, opt Options) error {
		opt = opt.normalized()
		factorNames, rows, err := design()
		if err != nil {
			return err
		}
		ov, lat, err := runFactorial(rows, opt, core.MetricPdCPUTime, core.MetricLatency)
		if err != nil {
			return err
		}
		for _, part := range []struct {
			metric string
			data   [][]float64
		}{
			{"monitoring latency", lat},
			{overheadName, ov},
		} {
			an, err := doe.Analyze2KR(factorNames, part.data)
			if err != nil {
				return err
			}
			t := report.NewTable(fmt.Sprintf("%s — variation explained for %s", title, part.metric),
				"term", "fraction")
			for _, e := range an.TopEffects(6) {
				t.AddRow(e.Term, report.Pct(e.Fraction*100))
			}
			t.AddRow("error/rest", report.Pct(an.ErrorFraction*100))
			if err := t.Render(w); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "factors: %s\n", factorLegend(factorNames)); err != nil {
				return err
			}
		}
		return nil
	}
}

func factorLegend(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%c=%s", 'A'+i, n)
	}
	return s
}
