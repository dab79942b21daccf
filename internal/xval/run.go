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
	// Workers sizes the cell × backend worker pool: 0 = one per core,
	// 1 = serial.
	Workers int
	// CILevel is the confidence level for simulation CIs (default 0.90).
	CILevel float64
}

// reference names the backend whose estimates anchor relative errors and
// whose CIs define coverage; Run falls back to the first evaluator when
// no evaluator has this name.
const reference = "simulation"

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

// DefaultEvaluators returns the two standard backends at the option
// scale: analytic and simulation. The simulation evaluator runs its
// replications serially (Workers 1) because Run fans grid cells out
// across Options.Workers already.
func DefaultEvaluators(opt Options) []Evaluator {
	opt = opt.normalized()
	return []Evaluator{
		AnalyticEvaluator{},
		SimEvaluator{Reps: opt.Reps, DurationUS: opt.DurationUS, Workers: 1, CILevel: opt.CILevel},
	}
}

// BackendEstimates is one backend's output for one cell.
type BackendEstimates struct {
	Backend   string    `json:"backend"`
	Estimates Estimates `json:"estimates"`
}

// BackendComparison compares one non-reference backend's value for one
// metric against the reference.
type BackendComparison struct {
	Backend string   `json:"backend"`
	Value   OptFloat `json:"value"`
	// RelError is |value - ref| / |ref|; Missing when either side is
	// absent or non-finite.
	RelError OptFloat `json:"rel_error"`
	// Diverged marks exactly one side non-finite — the analytic queue
	// saturated where the (finite-duration) simulation still measured a
	// value, or vice versa. Two same-signed infinities agree and are not
	// divergence.
	Diverged bool `json:"diverged,omitempty"`
	// CICovered reports whether the value lies inside the reference
	// confidence interval; nil when the reference carries no interval or
	// either side is non-finite.
	CICovered *bool `json:"ci_covered,omitempty"`
}

// MetricComparison is the error-surface row for one metric of one cell.
type MetricComparison struct {
	Metric    string              `json:"metric"`
	Reference OptFloat            `json:"reference"`
	HalfWidth OptFloat            `json:"ci_half_width"`
	Backends  []BackendComparison `json:"backends"`
}

// CellReport is the full cross-validation record of one grid cell.
type CellReport struct {
	ID        string             `json:"id"`
	Group     string             `json:"group"`
	Label     string             `json:"label"`
	Arch      string             `json:"arch"`
	Policy    string             `json:"policy"`
	Estimates []BackendEstimates `json:"estimates"`
	Metrics   []MetricComparison `json:"metrics"`
}

// Summary aggregates one (scope, backend, metric) slice of the error
// surface: the scope is either a grid group or an architecture/policy
// cell.
type Summary struct {
	Scope       string   `json:"scope"`
	Backend     string   `json:"backend"`
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
	Reference   string       `json:"reference"`
	Backends    []string     `json:"backends"`
	Cells       []CellReport `json:"cells"`
	// GroupSummaries aggregates per grid group; ArchPolicySummaries per
	// architecture/policy cell (the worst-case-divergence view).
	GroupSummaries      []Summary `json:"group_summaries"`
	ArchPolicySummaries []Summary `json:"arch_policy_summaries"`
}

// Run executes every evaluator over every grid cell (fanned across
// Options.Workers; results collected in index order, so output is
// identical at any pool size) and assembles the error surface.
func Run(g scenario.Grid, evals []Evaluator, opt Options) (*Report, error) {
	if len(evals) == 0 {
		return nil, errors.New("xval: no evaluators")
	}
	if len(g.Cells) == 0 {
		return nil, errors.New("xval: empty grid")
	}
	opt = opt.normalized()

	names := make([]string, len(evals))
	for i, ev := range evals {
		names[i] = ev.Name()
	}
	refIdx := 0
	for i, n := range names {
		if n == reference {
			refIdx = i
			break
		}
	}

	// Pre-derive per-cell seeds and pin durations so every backend of a
	// cell sees the identical spec.
	specs := make([]scenario.Spec, len(g.Cells))
	for i, c := range g.Cells {
		s := c.Spec
		s.Seed = core.DeriveSeed(opt.Seed, core.SeedStreamCrossVal, uint64(i))
		if opt.DurationUS > 0 {
			s.Duration = opt.DurationUS
		}
		specs[i] = s
	}

	type job struct{ ci, ei int }
	jobs := make([]job, 0, len(g.Cells)*len(evals))
	for ci := range g.Cells {
		for ei := range evals {
			jobs = append(jobs, job{ci, ei})
		}
	}
	flat, err := par.Map(opt.Workers, jobs, func(_ int, j job) (BackendEstimates, error) {
		est, err := evals[j.ei].Evaluate(specs[j.ci])
		if err != nil {
			return BackendEstimates{}, fmt.Errorf("%s on %s: %w", names[j.ei], g.Cells[j.ci].ID, err)
		}
		return BackendEstimates{Backend: names[j.ei], Estimates: est}, nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Grid:        g.Name,
		Seed:        opt.Seed,
		DurationSec: opt.DurationUS / 1e6,
		Reps:        opt.Reps,
		CILevel:     opt.CILevel,
		Reference:   names[refIdx],
		Backends:    names,
	}
	for ci, cell := range g.Cells {
		ests := flat[ci*len(evals) : (ci+1)*len(evals)]
		cr := CellReport{
			ID:        cell.ID,
			Group:     cell.Group,
			Label:     cell.Label,
			Arch:      strings.ToUpper(cell.Spec.Arch),
			Policy:    policyLabel(cell.Spec),
			Estimates: ests,
		}
		ref := ests[refIdx].Estimates
		for _, metric := range MetricNames {
			mc := MetricComparison{
				Metric:    metric,
				Reference: ref.Metric(metric),
				HalfWidth: ref.HalfWidth(metric),
			}
			for ei, be := range ests {
				if ei == refIdx {
					continue
				}
				mc.Backends = append(mc.Backends, compareOne(be, mc.Reference, mc.HalfWidth, metric))
			}
			cr.Metrics = append(cr.Metrics, mc)
		}
		rep.Cells = append(rep.Cells, cr)
	}
	rep.GroupSummaries = rep.summarize(func(c CellReport) string { return c.Group })
	rep.ArchPolicySummaries = rep.summarize(func(c CellReport) string { return c.Arch + "/" + c.Policy })
	return rep, nil
}

// policyLabel renders a spec's policy axis ("CF", "BF(32)", "ABF"). The
// policy field is a -policy spec, so bf:32 and abf:5 label correctly; an
// unparseable label degrades to CF, matching the pre-spec behavior.
func policyLabel(s scenario.Spec) string {
	spec, err := forward.ParseStrategySpec(s.Policy)
	if err != nil || spec.Policy == forward.CF {
		return "CF"
	}
	if spec.Adaptive {
		return strings.ToUpper(spec.String())
	}
	if spec.Batch > 0 {
		return fmt.Sprintf("BF(%d)", spec.Batch)
	}
	return fmt.Sprintf("BF(%d)", s.BatchSize)
}

// compareOne computes one backend-vs-reference comparison.
func compareOne(be BackendEstimates, ref, hw OptFloat, metric string) BackendComparison {
	bc := BackendComparison{
		Backend:  be.Backend,
		Value:    be.Estimates.Metric(metric),
		RelError: Missing(),
	}
	v, r := float64(bc.Value), float64(ref)
	switch {
	case math.IsNaN(v) || math.IsNaN(r):
		// Missing on either side: nothing to compare.
	case math.IsInf(v, 0) != math.IsInf(r, 0):
		bc.Diverged = true
	case math.IsInf(v, 0): // both infinite
		if math.Signbit(v) != math.Signbit(r) {
			bc.Diverged = true
		}
		// Same-signed infinities agree; RelError stays Missing.
	case r == 0:
		if v == 0 {
			bc.RelError = 0
		}
	default:
		bc.RelError = OptFloat(math.Abs(v-r) / math.Abs(r))
	}
	if bc.Value.Finite() && ref.Finite() && hw.Finite() {
		in := math.Abs(v-r) <= float64(hw)
		bc.CICovered = &in
	}
	return bc
}

// summarize aggregates the error surface by a scope function, in
// first-seen scope order, backend order, metric order — fully
// deterministic.
func (r *Report) summarize(scope func(CellReport) string) []Summary {
	type key struct{ scope, backend, metric string }
	acc := map[key]*Summary{}
	var order []key
	for _, cell := range r.Cells {
		sc := scope(cell)
		for _, mc := range cell.Metrics {
			for _, bc := range mc.Backends {
				k := key{sc, bc.Backend, mc.Metric}
				s, ok := acc[k]
				if !ok {
					s = &Summary{Scope: sc, Backend: bc.Backend, Metric: mc.Metric,
						MeanRelErr: Missing(), MaxRelErr: Missing()}
					acc[k] = s
					order = append(order, k)
				}
				s.Cells++
				if bc.Diverged {
					s.Diverged++
				}
				if bc.Value.IsMissing() {
					s.MissingData++
				}
				if bc.CICovered != nil {
					s.CIEligible++
					if *bc.CICovered {
						s.CICovered++
					}
				}
				if re := float64(bc.RelError); !math.IsNaN(re) {
					s.Compared++
					// Accumulate the mean in MeanRelErr; finalized below.
					if s.Compared == 1 {
						s.MeanRelErr = bc.RelError
						s.MaxRelErr = bc.RelError
						s.WorstCell = cell.ID
					} else {
						s.MeanRelErr += bc.RelError
						if re > float64(s.MaxRelErr) {
							s.MaxRelErr = bc.RelError
							s.WorstCell = cell.ID
						}
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

// MaxRelError returns the maximum finite relative error of the named
// backend vs the reference for one metric across every cell, with the
// worst cell's id; Missing when no cell was comparable.
func (r *Report) MaxRelError(backend, metric string) (OptFloat, string) {
	max, worst := Missing(), ""
	for _, cell := range r.Cells {
		for _, mc := range cell.Metrics {
			if mc.Metric != metric {
				continue
			}
			for _, bc := range mc.Backends {
				if bc.Backend != backend || bc.RelError.IsMissing() {
					continue
				}
				if max.IsMissing() || float64(bc.RelError) > float64(max) {
					max, worst = bc.RelError, cell.ID
				}
			}
		}
	}
	return max, worst
}

// Coverage returns the CI-coverage counts of the named backend across
// every cell and metric: how many comparisons had a reference interval,
// and how many of those the backend value fell inside.
func (r *Report) Coverage(backend string) (covered, eligible int) {
	for _, cell := range r.Cells {
		for _, mc := range cell.Metrics {
			for _, bc := range mc.Backends {
				if bc.Backend != backend || bc.CICovered == nil {
					continue
				}
				eligible++
				if *bc.CICovered {
					covered++
				}
			}
		}
	}
	return covered, eligible
}

// Tolerance is the committed CI gate for a cross-validation run: the run
// parameters that produced the reference surface and the per-metric
// relative-error ceilings (plus a CI-coverage floor) the gated backend
// must stay within.
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
		max, worst := r.MaxRelError(tol.Backend, metric)
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
		covered, eligible := r.Coverage(tol.Backend)
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
	if t.Backend == "" {
		t.Backend = "analytic"
	}
	return t, nil
}
