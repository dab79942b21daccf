package xval

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"rocc/internal/core"
	"rocc/internal/forward"
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

// The analytic mapping must reproduce the documented equation values
// for the baseline to 1e-9.
func TestGoldenBaselineAnalytic(t *testing.T) {
	cfg, err := scenario.FromConfig(core.DefaultConfig()).Config()
	if err != nil {
		t.Fatal(err)
	}
	got, err := analyticEstimates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineExpected()
	for _, m := range MetricNames {
		wantClose(t, "analytic "+m, got.Metric(m), want.Metric(m), 1e-9)
	}
}

// Params charges a batch what the simulator's cost model charges a
// message of that many samples: with Table 2's costs, 267 + 8·31 µs of
// daemon CPU and 71 + 2·31 µs of network at BF(32), and the bare
// per-message demands under CF.
func TestParamsPriceTheBatch(t *testing.T) {
	for _, tc := range []struct {
		strategy   forward.Strategy
		batch      float64
		dCPU, dNet float64
	}{
		{forward.NewCF(), 1, 267, 71},
		{forward.NewFixedBF(32), 32, 515, 133},
	} {
		cfg := core.DefaultConfig()
		cfg.Strategy = tc.strategy
		p := Params(cfg)
		if p.BatchSize != tc.batch || p.DPdCPU != tc.dCPU || p.DPdNet != tc.dNet {
			t.Errorf("batch %v: D_Pd,CPU = %v, D_Pd,net = %v; want %v and %v",
				p.BatchSize, p.DPdCPU, p.DPdNet, tc.dCPU, tc.dNet)
		}
	}
}

// core.Result reports latencies in seconds; Estimates must carry
// microseconds.
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
	// cmp compares an analytic daemon utilization with a simulated one
	// and its CI half-width.
	cmp := func(ana, sim float64, hw OptFloat) MetricComparison {
		a, s := emptyEstimates(), emptyEstimates()
		a.PdCPUUtilPct = OptFloat(ana)
		s.PdCPUUtilPct, s.PdCPUUtilHW = OptFloat(sim), hw
		return compare("pd_cpu_util_pct", a, s)
	}
	inf := math.Inf(1)

	mc := cmp(1.1, 1.0, 0.2)
	wantClose(t, "rel error", mc.RelError, 0.1, 1e-12)
	if mc.Simulation != 1.0 || mc.HalfWidth != 0.2 || mc.Analytic != 1.1 {
		t.Errorf("row values %v ±%v vs %v, want 1 ±0.2 vs 1.1", mc.Simulation, mc.HalfWidth, mc.Analytic)
	}
	if mc.CICovered == nil || !*mc.CICovered {
		t.Error("value inside the interval must be covered")
	}
	mc = cmp(1.5, 1.0, 0.2)
	if mc.CICovered == nil || *mc.CICovered {
		t.Error("value outside the interval must not be covered")
	}
	mc = cmp(1.5, 1.0, Missing())
	if mc.CICovered != nil {
		t.Error("no interval → coverage undefined")
	}
	mc = cmp(0, 0, Missing())
	wantClose(t, "0 vs 0", mc.RelError, 0, 1e-12)
	mc = cmp(1, 0, Missing())
	if !mc.RelError.IsMissing() {
		t.Error("nonzero vs zero reference has no relative error")
	}
	mc = cmp(inf, 1.0, Missing())
	if !mc.Diverged || !mc.RelError.IsMissing() || mc.CICovered != nil {
		t.Error("one-sided infinity must be flagged as diverged")
	}
	mc = cmp(inf, inf, Missing())
	if mc.Diverged {
		t.Error("matching infinities agree in divergence")
	}
	mc = cmp(math.NaN(), 1.0, 0.2)
	if mc.Diverged || !mc.RelError.IsMissing() || mc.CICovered != nil {
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
// pattern, extended over grid cells).
func TestRunJSONByteIdenticalAcrossWorkers(t *testing.T) {
	g := scenario.SmokeGrid()
	render := func(workers int) string {
		opt := tinyOptions()
		opt.Workers = workers
		rep, err := Run(g, opt)
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
	rep, err := Run(g, opt)
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
		for _, mc := range cell.Metrics {
			if mc.Simulation != cell.Simulation.Metric(mc.Metric) || mc.Analytic != cell.Analytic.Metric(mc.Metric) {
				t.Errorf("cell %s %s: row %v vs %v, estimates %v vs %v", cell.ID, mc.Metric,
					mc.Simulation, mc.Analytic, cell.Simulation.Metric(mc.Metric), cell.Analytic.Metric(mc.Metric))
			}
		}
	}
	// The analytic model reports every compared metric on every smoke
	// cell: no missing values.
	for _, s := range rep.GroupSummaries {
		if s.MissingData != 0 {
			t.Errorf("summary %s/%s: %d missing cells", s.Scope, s.Metric, s.MissingData)
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
	if _, err := LoadTolerance(strings.NewReader(`{"backend": "simulation"}`)); err == nil {
		t.Error("a backend other than analytic must be rejected")
	}
	tol, err = LoadTolerance(strings.NewReader(`{"grid": "smoke"}`))
	if err != nil || tol.Backend != "analytic" {
		t.Errorf("omitted backend: got %q, %v; want analytic", tol.Backend, err)
	}
}
