package xval

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/par"
	"rocc/internal/scenario"
)

// Options scales a cross-validation run.
type Options struct {
	// Seed is the master seed; each grid cell gets an independent base
	// seed via DeriveSeed(Seed, SeedStreamCrossVal, cellIndex), so the
	// error surface regenerates byte-identically for a fixed Seed at any
	// Workers setting.
	Seed uint64
	// DurationUS, when positive, overrides every cell's simulated
	// duration (microseconds).
	DurationUS float64
	// Reps is the simulation replication count per cell.
	Reps int
	// Workers sizes the per-cell worker pool: 0 = one per core,
	// 1 = serial.
	Workers int
	// CILevel is the confidence level for simulation CIs (default 0.90).
	CILevel float64
}

// DefaultOptions returns the default cross-validation scaling: 10
// simulated seconds, 3 replications, 90% CIs.
func DefaultOptions() Options {
	return Options{Seed: 1, DurationUS: 10e6, Reps: 3, CILevel: 0.90}
}

func (o Options) normalized() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	if o.CILevel <= 0 || o.CILevel >= 1 {
		o.CILevel = 0.90
	}
	return o
}

// MetricComparison is the error-surface row for one metric of one cell:
// the simulated value and its CI half-width are the reference the
// analytic value is measured against.
type MetricComparison struct {
	Metric     string   `json:"metric"`
	Simulation OptFloat `json:"simulation"`
	HalfWidth  OptFloat `json:"ci_half_width"`
	Analytic   OptFloat `json:"analytic"`
	// RelError is |analytic - simulation| / |simulation|; Missing when
	// either side is absent or non-finite.
	RelError OptFloat `json:"rel_error"`
	// Diverged marks exactly one side non-finite — the analytic queue
	// saturated where the (finite-duration) simulation still measured a
	// value, or vice versa. Two same-signed infinities agree and are not
	// divergence.
	Diverged bool `json:"diverged,omitempty"`
	// CICovered reports whether the analytic value lies inside the
	// simulation's confidence interval; nil when the simulation carries
	// no interval or either side is non-finite.
	CICovered *bool `json:"ci_covered,omitempty"`
}

// CellReport is the full cross-validation record of one grid cell.
type CellReport struct {
	ID         string             `json:"id"`
	Group      string             `json:"group"`
	Label      string             `json:"label"`
	Arch       string             `json:"arch"`
	Policy     string             `json:"policy"`
	Analytic   Estimates          `json:"analytic"`
	Simulation Estimates          `json:"simulation"`
	Metrics    []MetricComparison `json:"metrics"`
}

// Summary aggregates one (scope, metric) slice of the error surface: the
// scope is either a grid group or an architecture/policy cell.
type Summary struct {
	Scope       string   `json:"scope"`
	Metric      string   `json:"metric"`
	Cells       int      `json:"cells"`
	Compared    int      `json:"compared"`
	MeanRelErr  OptFloat `json:"mean_rel_error"`
	MaxRelErr   OptFloat `json:"max_rel_error"`
	WorstCell   string   `json:"worst_cell,omitempty"`
	CICovered   int      `json:"ci_covered"`
	CIEligible  int      `json:"ci_eligible"`
	Diverged    int      `json:"diverged"`
	MissingData int      `json:"missing_data"`
}

// Report is the cross-validation error surface for one grid run.
type Report struct {
	Grid        string       `json:"grid"`
	Seed        uint64       `json:"seed"`
	DurationSec float64      `json:"duration_sec"`
	Reps        int          `json:"reps"`
	CILevel     float64      `json:"ci_level"`
	Cells       []CellReport `json:"cells"`
	// GroupSummaries aggregates per grid group; ArchPolicySummaries per
	// architecture/policy cell (the worst-case-divergence view).
	GroupSummaries      []Summary `json:"group_summaries"`
	ArchPolicySummaries []Summary `json:"arch_policy_summaries"`
}

// Run evaluates every grid cell's analytic estimate and replicated
// simulation (cells fanned across Options.Workers; results collected in
// index order, so output is identical at any pool size) and assembles
// the error surface.
func Run(g scenario.Grid, opt Options) (*Report, error) {
	if len(g.Cells) == 0 {
		return nil, errors.New("xval: empty grid")
	}
	opt = opt.normalized()

	rep := &Report{
		Grid:        g.Name,
		Seed:        opt.Seed,
		DurationSec: opt.DurationUS / 1e6,
		Reps:        opt.Reps,
		CILevel:     opt.CILevel,
	}
	cells, err := par.Map(opt.Workers, g.Cells, func(i int, cell scenario.Cell) (CellReport, error) {
		s := cell.Spec
		s.Seed = core.DeriveSeed(opt.Seed, core.SeedStreamCrossVal, uint64(i))
		if opt.DurationUS > 0 {
			s.Duration = opt.DurationUS
		}
		cfg, err := s.Config()
		if err != nil {
			return CellReport{}, fmt.Errorf("%s: %w", cell.ID, err)
		}
		cr := CellReport{
			ID:     cell.ID,
			Group:  cell.Group,
			Label:  cell.Label,
			Arch:   strings.ToUpper(cell.Spec.Arch),
			Policy: policyLabel(cfg.Strategy),
		}
		if cr.Analytic, err = analyticEstimates(cfg); err != nil {
			return CellReport{}, fmt.Errorf("analytic on %s: %w", cell.ID, err)
		}
		if cr.Simulation, err = simulate(cfg, opt); err != nil {
			return CellReport{}, fmt.Errorf("simulation on %s: %w", cell.ID, err)
		}
		for _, metric := range MetricNames {
			cr.Metrics = append(cr.Metrics, compare(metric, cr.Analytic, cr.Simulation))
		}
		return cr, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Cells = cells
	rep.GroupSummaries = rep.summarize(func(c CellReport) string { return c.Group })
	rep.ArchPolicySummaries = rep.summarize(func(c CellReport) string { return c.Arch + "/" + c.Policy })
	return rep, nil
}

// policyLabel renders a cell's policy axis ("CF", "BF(32)", "ABF",
// "ABF:5") from its parsed strategy.
func policyLabel(s forward.Strategy) string {
	p, batch := forward.PolicyOf(s)
	switch {
	case p == forward.CF:
		return "CF"
	case batch == 0:
		return strings.ToUpper(s.String())
	}
	return fmt.Sprintf("BF(%d)", batch)
}

// compare builds one metric's row: the analytic value against the
// simulated one and its confidence interval.
func compare(metric string, ana, sim Estimates) MetricComparison {
	mc := MetricComparison{
		Metric:     metric,
		Simulation: sim.Metric(metric),
		HalfWidth:  sim.HalfWidth(metric),
		Analytic:   ana.Metric(metric),
		RelError:   Missing(),
	}
	v, r := float64(mc.Analytic), float64(mc.Simulation)
	switch {
	case math.IsNaN(v) || math.IsNaN(r):
		// Missing on either side: nothing to compare.
	case math.IsInf(v, 0) != math.IsInf(r, 0):
		mc.Diverged = true
	case math.IsInf(v, 0): // both infinite
		if math.Signbit(v) != math.Signbit(r) {
			mc.Diverged = true
		}
		// Same-signed infinities agree; RelError stays Missing.
	case r == 0:
		if v == 0 {
			mc.RelError = 0
		}
	default:
		mc.RelError = OptFloat(math.Abs(v-r) / math.Abs(r))
	}
	if mc.Analytic.Finite() && mc.Simulation.Finite() && mc.HalfWidth.Finite() {
		in := math.Abs(v-r) <= float64(mc.HalfWidth)
		mc.CICovered = &in
	}
	return mc
}

// summarize aggregates the error surface by a scope function, in
// first-seen scope order, then metric order — fully deterministic.
func (r *Report) summarize(scope func(CellReport) string) []Summary {
	type key struct{ scope, metric string }
	acc := map[key]*Summary{}
	var order []key
	for _, cell := range r.Cells {
		sc := scope(cell)
		for _, mc := range cell.Metrics {
			k := key{sc, mc.Metric}
			s, ok := acc[k]
			if !ok {
				s = &Summary{Scope: sc, Metric: mc.Metric, MeanRelErr: Missing(), MaxRelErr: Missing()}
				acc[k] = s
				order = append(order, k)
			}
			s.Cells++
			if mc.Diverged {
				s.Diverged++
			}
			if mc.Analytic.IsMissing() {
				s.MissingData++
			}
			if mc.CICovered != nil {
				s.CIEligible++
				if *mc.CICovered {
					s.CICovered++
				}
			}
			if re := float64(mc.RelError); !math.IsNaN(re) {
				s.Compared++
				// Accumulate the mean in MeanRelErr; finalized below.
				if s.Compared == 1 {
					s.MeanRelErr = mc.RelError
					s.MaxRelErr = mc.RelError
					s.WorstCell = cell.ID
				} else {
					s.MeanRelErr += mc.RelError
					if re > float64(s.MaxRelErr) {
						s.MaxRelErr = mc.RelError
						s.WorstCell = cell.ID
					}
				}
			}
		}
	}
	out := make([]Summary, 0, len(order))
	for _, k := range order {
		s := acc[k]
		if s.Compared > 1 {
			s.MeanRelErr = OptFloat(float64(s.MeanRelErr) / float64(s.Compared))
		}
		out = append(out, *s)
	}
	return out
}

// MaxRelError returns the maximum finite relative error of the analytic
// model against the simulation for one metric across every cell, with
// the worst cell's id; Missing when no cell was comparable.
func (r *Report) MaxRelError(metric string) (OptFloat, string) {
	max, worst := Missing(), ""
	for _, cell := range r.Cells {
		for _, mc := range cell.Metrics {
			if mc.Metric != metric || mc.RelError.IsMissing() {
				continue
			}
			if max.IsMissing() || float64(mc.RelError) > float64(max) {
				max, worst = mc.RelError, cell.ID
			}
		}
	}
	return max, worst
}

// Coverage returns the CI-coverage counts across every cell and metric:
// how many comparisons had a simulation interval, and how many of those
// the analytic value fell inside.
func (r *Report) Coverage() (covered, eligible int) {
	for _, cell := range r.Cells {
		for _, mc := range cell.Metrics {
			if mc.CICovered == nil {
				continue
			}
			eligible++
			if *mc.CICovered {
				covered++
			}
		}
	}
	return covered, eligible
}

// Tolerance is the committed CI gate for a cross-validation run: the run
// parameters that produced the reference surface and the per-metric
// relative-error ceilings (plus a CI-coverage floor) the analytic model
// must stay within. Backend names the gated model and must be
// "analytic", the only one compared with the simulation.
type Tolerance struct {
	Grid          string             `json:"grid"`
	DurationSec   float64            `json:"duration_sec"`
	Reps          int                `json:"reps"`
	Seed          uint64             `json:"seed"`
	Backend       string             `json:"backend"`
	MaxRelError   map[string]float64 `json:"max_rel_error"`
	MinCICoverage float64            `json:"min_ci_coverage"`
}

// Check verifies the report against the tolerance, returning an error
// naming every violated metric.
func (r *Report) Check(tol Tolerance) error {
	var problems []string
	for _, metric := range MetricNames {
		limit, ok := tol.MaxRelError[metric]
		if !ok {
			continue
		}
		max, worst := r.MaxRelError(metric)
		if max.IsMissing() {
			problems = append(problems, fmt.Sprintf("%s: no comparable cells", metric))
			continue
		}
		if float64(max) > limit {
			problems = append(problems, fmt.Sprintf("%s: max rel error %.4f > %.4f (worst cell %s)",
				metric, float64(max), limit, worst))
		}
	}
	if tol.MinCICoverage > 0 {
		covered, eligible := r.Coverage()
		if eligible == 0 {
			problems = append(problems, "ci coverage: no eligible comparisons")
		} else if frac := float64(covered) / float64(eligible); frac < tol.MinCICoverage {
			problems = append(problems, fmt.Sprintf("ci coverage %.3f (%d/%d) < %.3f",
				frac, covered, eligible, tol.MinCICoverage))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("xval: tolerance exceeded for backend %q:\n  %s",
			tol.Backend, strings.Join(problems, "\n  "))
	}
	return nil
}

// LoadTolerance reads a Tolerance JSON file.
func LoadTolerance(rd io.Reader) (Tolerance, error) {
	var t Tolerance
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Tolerance{}, fmt.Errorf("xval: tolerance: %w", err)
	}
	switch t.Backend {
	case "":
		t.Backend = "analytic"
	case "analytic":
	default:
		return Tolerance{}, fmt.Errorf("xval: tolerance: backend %q: only \"analytic\" is compared with the simulation", t.Backend)
	}
	return t, nil
}
