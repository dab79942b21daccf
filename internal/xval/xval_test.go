package xval

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rocc/internal/core"
	"rocc/internal/scenario"
)

// Hand-computed eq (1)-(6) values for the Table 2 "typical configuration"
// (NOW, 8 nodes, 1 process/node, 40 ms sampling, CF): the golden anchor
// of the analytic backend's unit-conversion contract. Written as the
// arithmetic of the printed equations, not computed via internal/analytic.
func baselineExpected() Estimates {
	const (
		sp      = 40000.0 // µs
		nodes   = 8.0
		dPdCPU  = 267.0
		dPdNet  = 71.0
		dParCPU = 3208.0
	)
	lambda := 1.0 / sp // (1/SP)(1/B)·procs, eq (1)
	uPd := lambda * dPdCPU
	uNet := nodes * lambda * dPdNet
	uMain := nodes * lambda * dParCPU
	lat := dPdCPU/(1-uPd) + dPdNet/(1-uNet)
	e := emptyEstimates()
	e.PdCPUUtilPct = OptFloat(uPd * 100)
	e.MainCPUUtilPct = OptFloat(uMain * 100)
	e.AppCPUUtilPct = OptFloat((1 - uPd) * 100)
	e.PdNetUtilPct = OptFloat(uNet * 100)
	e.LatencyMeanUS = OptFloat(lat)
	return e
}

func wantClose(t *testing.T, name string, got, want OptFloat, tol float64) {
	t.Helper()
	if math.Abs(float64(got)-float64(want)) > tol {
		t.Errorf("%s = %v, want %v (±%g)", name, float64(got), float64(want), tol)
	}
}

// The analytic evaluator must reproduce the documented equation values
// for the baseline to 1e-9 (satellite 4's golden test).
func TestGoldenBaselineAnalytic(t *testing.T) {
	sp := scenario.FromConfig(core.DefaultConfig())
	got, err := AnalyticEvaluator{}.Evaluate(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineExpected()
	for _, m := range MetricNames {
		wantClose(t, "analytic "+m, got.Metric(m), want.Metric(m), 1e-9)
	}
}

// core.Result reports latencies in seconds; Estimates must carry
// microseconds (satellite 4's unit contract).
func TestEstimatesUnitConversion(t *testing.T) {
	res := core.Result{
		PdCPUUtilPct:            1.5,
		MonitoringLatencySec:    0.002,
		MonitoringLatencyP50Sec: 0.001,
		MonitoringLatencyP99Sec: 0.004,
	}
	est := estimatesFromResults([]core.Result{res}, 0.90)
	wantClose(t, "latency_mean_us", est.LatencyMeanUS, 2000, 1e-12)
	wantClose(t, "latency_p50_us", est.LatencyP50US, 1000, 1e-12)
	wantClose(t, "latency_p99_us", est.LatencyP99US, 4000, 1e-12)
	wantClose(t, "pd_cpu_util_pct", est.PdCPUUtilPct, 1.5, 1e-12)
	if !est.LatencyMeanHW.IsMissing() {
		t.Error("single replication must not carry a CI half-width")
	}
	est2 := estimatesFromResults([]core.Result{res, {MonitoringLatencySec: 0.004}}, 0.90)
	wantClose(t, "2-rep latency mean", est2.LatencyMeanUS, 3000, 1e-9)
	if est2.LatencyMeanHW.IsMissing() {
		t.Error("two replications must carry a CI half-width")
	}
}

func TestOptFloatJSON(t *testing.T) {
	in := []OptFloat{Missing(), OptFloat(math.Inf(1)), OptFloat(math.Inf(-1)), 1.25}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(b), `[null,"+inf","-inf",1.25]`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var out []OptFloat
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out[0].IsMissing() || !math.IsInf(float64(out[1]), 1) ||
		!math.IsInf(float64(out[2]), -1) || out[3] != 1.25 {
		t.Fatalf("round trip = %v", out)
	}
}

func TestCompareOneSemantics(t *testing.T) {
	est := func(v float64) BackendEstimates {
		e := emptyEstimates()
		e.PdCPUUtilPct = OptFloat(v)
		return BackendEstimates{Backend: "b", Estimates: e}
	}
	inf := math.Inf(1)

	bc := compareOne(est(1.1), 1.0, 0.2, "pd_cpu_util_pct")
	wantClose(t, "rel error", bc.RelError, 0.1, 1e-12)
	if bc.CICovered == nil || !*bc.CICovered {
		t.Error("value inside the interval must be covered")
	}
	bc = compareOne(est(1.5), 1.0, 0.2, "pd_cpu_util_pct")
	if bc.CICovered == nil || *bc.CICovered {
		t.Error("value outside the interval must not be covered")
	}
	bc = compareOne(est(1.5), 1.0, Missing(), "pd_cpu_util_pct")
	if bc.CICovered != nil {
		t.Error("no interval → coverage undefined")
	}
	bc = compareOne(est(0), 0, Missing(), "pd_cpu_util_pct")
	wantClose(t, "0 vs 0", bc.RelError, 0, 1e-12)
	bc = compareOne(est(1), 0, Missing(), "pd_cpu_util_pct")
	if !bc.RelError.IsMissing() {
		t.Error("nonzero vs zero reference has no relative error")
	}
	bc = compareOne(est(inf), 1.0, Missing(), "pd_cpu_util_pct")
	if !bc.Diverged || !bc.RelError.IsMissing() || bc.CICovered != nil {
		t.Error("one-sided infinity must be flagged as diverged")
	}
	bc = compareOne(est(inf), OptFloat(inf), Missing(), "pd_cpu_util_pct")
	if bc.Diverged {
		t.Error("matching infinities agree in divergence")
	}
	bc = compareOne(est(math.NaN()), 1.0, 0.2, "pd_cpu_util_pct")
	if bc.Diverged || !bc.RelError.IsMissing() || bc.CICovered != nil {
		t.Error("missing value compares as missing")
	}
}

// tinyOptions keeps the full pipeline fast in tests.
func tinyOptions() Options {
	opt := DefaultOptions()
	opt.DurationUS = 0.2e6
	opt.Reps = 2
	return opt
}

// The dashboard contract: for a fixed seed the JSON error surface is
// byte-identical at any worker-pool size (the PR 2 order-preservation
// pattern, extended over cells × backends).
func TestRunJSONByteIdenticalAcrossWorkers(t *testing.T) {
	g := scenario.SmokeGrid()
	render := func(workers int) string {
		opt := tinyOptions()
		opt.Workers = workers
		rep, err := Run(g, DefaultEvaluators(opt), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	for _, workers := range []int{0, 8} {
		if got := render(workers); got != serial {
			t.Errorf("JSON output differs between -parallel 1 and -parallel %d", workers)
		}
	}
}

func TestRunReportShapeAndTolerance(t *testing.T) {
	g := scenario.SmokeGrid()
	opt := tinyOptions()
	rep, err := Run(g, DefaultEvaluators(opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(g.Cells) {
		t.Fatalf("%d cell reports, want %d", len(rep.Cells), len(g.Cells))
	}
	for _, cell := range rep.Cells {
		if len(cell.Metrics) != len(MetricNames) {
			t.Fatalf("cell %s: %d metric rows, want %d", cell.ID, len(cell.Metrics), len(MetricNames))
		}
		if len(cell.Estimates) != 2 {
			t.Fatalf("cell %s: %d backends, want 2", cell.ID, len(cell.Estimates))
		}
	}
	if rep.Reference != "simulation" || len(rep.Backends) != 2 || rep.Backends[0] != "analytic" {
		t.Fatalf("reference %q, backends %v; want simulation over [analytic simulation]",
			rep.Reference, rep.Backends)
	}
	// The analytic backend reports every compared metric on every smoke
	// cell: no missing values.
	for _, s := range rep.GroupSummaries {
		if s.MissingData != 0 {
			t.Errorf("summary %s/%s/%s: %d missing cells", s.Scope, s.Backend, s.Metric, s.MissingData)
		}
	}

	// A permissive tolerance passes; a zero tolerance fails and names the
	// metric.
	pass := Tolerance{Backend: "analytic",
		MaxRelError: map[string]float64{"pd_cpu_util_pct": 1e6}}
	if err := rep.Check(pass); err != nil {
		t.Errorf("permissive tolerance failed: %v", err)
	}
	fail := Tolerance{Backend: "analytic",
		MaxRelError: map[string]float64{"pd_cpu_util_pct": 0}}
	err = rep.Check(fail)
	if err == nil || !strings.Contains(err.Error(), "pd_cpu_util_pct") {
		t.Errorf("zero tolerance must fail naming the metric, got %v", err)
	}

	// RenderText covers every cell and metric.
	var buf bytes.Buffer
	if err := rep.RenderText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, cell := range rep.Cells {
		if !strings.Contains(text, cell.ID) {
			t.Errorf("rendered text missing cell %s", cell.ID)
		}
	}
	for _, m := range MetricNames {
		if !strings.Contains(text, m) {
			t.Errorf("rendered text missing metric %s", m)
		}
	}
}

// constEval is a stub backend reporting the same daemon utilization on
// every cell.
type constEval struct {
	name string
	pd   float64
}

func (c constEval) Name() string { return c.name }

func (c constEval) Evaluate(scenario.Spec) (Estimates, error) {
	e := emptyEstimates()
	e.PdCPUUtilPct = OptFloat(c.pd)
	return e, nil
}

// Run anchors on the backend named "simulation" wherever it sits in the
// evaluator list, and on the first evaluator when none has that name.
func TestRunReferenceIsSimulationElseFirst(t *testing.T) {
	g := scenario.SmokeGrid()
	g.Cells = g.Cells[:1]
	for _, tc := range []struct {
		evals  []Evaluator
		ref    string
		other  string
		relErr float64
	}{
		{[]Evaluator{constEval{"a", 3}, constEval{"simulation", 2}}, "simulation", "a", 0.5},
		{[]Evaluator{constEval{"a", 3}, constEval{"b", 2}}, "a", "b", 1.0 / 3},
	} {
		rep, err := Run(g, tc.evals, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Reference != tc.ref {
			t.Errorf("reference %q, want %q", rep.Reference, tc.ref)
		}
		got, _ := rep.MaxRelError(tc.other, "pd_cpu_util_pct")
		wantClose(t, tc.other+" vs "+tc.ref, got, OptFloat(tc.relErr), 1e-12)
	}
}

func TestLoadTolerance(t *testing.T) {
	tol, err := LoadTolerance(strings.NewReader(`{
		"grid": "smoke", "duration_sec": 2, "reps": 3, "seed": 1,
		"backend": "analytic",
		"max_rel_error": {"pd_cpu_util_pct": 0.5},
		"min_ci_coverage": 0.1
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if tol.Grid != "smoke" || tol.MaxRelError["pd_cpu_util_pct"] != 0.5 {
		t.Fatalf("loaded %+v", tol)
	}
	if _, err := LoadTolerance(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown fields must be rejected")
	}
}
