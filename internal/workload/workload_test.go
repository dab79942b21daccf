package workload

import (
	"math"
	"testing"

	"rocc/internal/core"
	"rocc/internal/rng"
	"rocc/internal/stats"
	"rocc/internal/trace"
)

func genTrace(t *testing.T, durUS float64) []trace.Record {
	t.Helper()
	recs, err := trace.Generate(trace.GenConfig{Seed: 11, DurationUS: durUS, IncludeMainTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestCharacterizeTable1Shape(t *testing.T) {
	recs := genTrace(t, 100e6) // 100 s, like the paper's runs
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	classes := c.Classes()
	if len(classes) != 5 || classes[0] != trace.ProcApplication {
		t.Fatalf("classes %v", classes)
	}
	appCPU := c.Stats[ClassResource{trace.ProcApplication, trace.CPU}]
	if appCPU.N < 1000 {
		t.Fatalf("too few app CPU requests: %d", appCPU.N)
	}
	// Table 1 row 1: mean ~2213, sd ~3034.
	if math.Abs(appCPU.Mean-2213)/2213 > 0.15 {
		t.Fatalf("app CPU mean %v", appCPU.Mean)
	}
	if math.Abs(appCPU.SD-3034)/3034 > 0.25 {
		t.Fatalf("app CPU sd %v", appCPU.SD)
	}
	pdCPU := c.Stats[ClassResource{trace.ProcPd, trace.CPU}]
	if math.Abs(pdCPU.Mean-267)/267 > 0.15 {
		t.Fatalf("pd CPU mean %v", pdCPU.Mean)
	}
}

func TestCharacterizeFitsMatchFigure8(t *testing.T) {
	recs := genTrace(t, 100e6)
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 8a: application CPU requests are lognormal.
	appFit := c.Fits[ClassResource{trace.ProcApplication, trace.CPU}]
	if appFit.Best.Dist.Name() != "lognormal" {
		t.Fatalf("app CPU best fit %s, want lognormal", appFit.Best.Dist.Name())
	}
	if len(appFit.Candidates) != 4 {
		t.Fatalf("want 4 candidates, got %d", len(appFit.Candidates))
	}
	// Figure 8b: application network requests are exponential (the Weibull
	// and gamma families nest the exponential, so accept shape~1 Weibull or
	// gamma too).
	netFit := c.Fits[ClassResource{trace.ProcApplication, trace.Network}]
	switch d := netFit.Best.Dist.(type) {
	case stats.ExpFit:
	case stats.WeibullFit:
		if math.Abs(d.Shape-1) > 0.1 {
			t.Fatalf("net fit weibull shape %v", d.Shape)
		}
	case stats.GammaFit:
		if math.Abs(d.Shape-1) > 0.1 {
			t.Fatalf("net fit gamma shape %v", d.Shape)
		}
	default:
		t.Fatalf("app net best fit %s", netFit.Best.Dist.Name())
	}
}

func TestWorkloadParamsTable2(t *testing.T) {
	recs := genTrace(t, 100e6)
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Workload()
	if math.Abs(w.AppCPU.Mean()-2213)/2213 > 0.15 {
		t.Fatalf("AppCPU mean %v", w.AppCPU.Mean())
	}
	if math.Abs(w.AppNet.Mean()-223)/223 > 0.15 {
		t.Fatalf("AppNet mean %v", w.AppNet.Mean())
	}
	if math.Abs(w.PvmInterarrival.Mean()-6485)/6485 > 0.2 {
		t.Fatalf("Pvm interarrival %v", w.PvmInterarrival.Mean())
	}
	if math.Abs(w.MainCPU.Mean()-3208)/3208 > 0.2 {
		t.Fatalf("MainCPU mean %v", w.MainCPU.Mean())
	}
	// Sampling period recovered from the Pd activity cadence.
	sp := c.SamplingPeriod()
	if math.Abs(sp-40000)/40000 > 0.1 {
		t.Fatalf("sampling period %v, want ~40000", sp)
	}
}

func TestCPUSecondsMatchesOccupancy(t *testing.T) {
	recs := []trace.Record{
		{StartUS: 0, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 2e6},
		{StartUS: 3e6, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 1e6},
		{StartUS: 0, PID: 2, Process: trace.ProcPd, Resource: trace.CPU, DurationUS: 5e5},
	}
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.CPUSeconds(trace.ProcApplication); math.Abs(got-3) > 1e-9 {
		t.Fatalf("app CPU seconds %v", got)
	}
	if got := c.CPUSeconds(trace.ProcPd); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("pd CPU seconds %v", got)
	}
	if c.CPUSeconds("absent") != 0 {
		t.Fatal("absent class should be 0")
	}
}

func TestCharacterizeErrors(t *testing.T) {
	if _, err := Characterize(nil); err == nil {
		t.Fatal("empty trace should fail")
	}
	bad := []trace.Record{{StartUS: 0, PID: 1, Process: "x", Resource: trace.CPU, DurationUS: -1}}
	if _, err := Characterize(bad); err == nil {
		t.Fatal("invalid record should fail")
	}
}

func TestWorkloadFallbacksForMissingClasses(t *testing.T) {
	// Trace with only an application process: all other classes fall back
	// to published Table 2 values.
	recs := []trace.Record{
		{StartUS: 0, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 100},
		{StartUS: 100, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 150},
		{StartUS: 300, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 120},
	}
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Workload()
	if w.PvmCPU.Mean() != 294 {
		t.Fatalf("pvm fallback %v", w.PvmCPU.Mean())
	}
	if w.OtherNetInterarrival.Mean() != 5598903 {
		t.Fatalf("other net interarrival fallback %v", w.OtherNetInterarrival.Mean())
	}
	if c.SamplingPeriod() != 0 {
		t.Fatal("no Pd in trace: sampling period should be 0")
	}
}

func TestDistConversion(t *testing.T) {
	cases := []struct {
		fit  stats.Fitted
		want string
	}{
		{stats.ExpFit{MeanVal: 100}, "exponential(100)"},
		{stats.LognormalFit{Mu: 5, Sigma: 0.5}, "lognormal"},
		{stats.WeibullFit{Shape: 2, Scale: 10}, "weibull"},
	}
	for _, c := range cases {
		d := dist(c.fit)
		if d == nil {
			t.Fatal("nil dist")
		}
		if math.Abs(d.Mean()-c.fit.Mean()) > 1e-6*c.fit.Mean() {
			t.Fatalf("%s: mean %v != %v", c.want, d.Mean(), c.fit.Mean())
		}
	}
	// Unknown fitted type falls back to a constant at the mean.
	d := dist(fakeFit{})
	if _, ok := d.(rng.Constant); !ok {
		t.Fatal("unknown fit should become Constant")
	}
}

func TestEmpiricalWorkload(t *testing.T) {
	recs := genTrace(t, 50e6)
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	w := c.EmpiricalWorkload()
	// Trace-driven distributions resample the observed lengths: means
	// match the raw sample means exactly.
	appCPU := c.Stats[ClassResource{trace.ProcApplication, trace.CPU}]
	if math.Abs(w.AppCPU.Mean()-appCPU.Mean) > 1e-9*appCPU.Mean {
		t.Fatalf("empirical mean %v != sample mean %v", w.AppCPU.Mean(), appCPU.Mean)
	}
	if _, ok := w.AppCPU.(rng.Empirical); !ok {
		t.Fatalf("AppCPU should be empirical, is %T", w.AppCPU)
	}
	// Empirical samples come from the observed set.
	r := rng.New(1)
	v := w.AppCPU.Sample(r)
	found := false
	for _, x := range c.Samples[ClassResource{trace.ProcApplication, trace.CPU}] {
		if x == v {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("empirical sample not in observed set")
	}
	// Missing classes fall back to fitted/published parameters.
	only := []trace.Record{
		{StartUS: 0, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 5},
		{StartUS: 10, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 7},
	}
	c2, err := Characterize(only)
	if err != nil {
		t.Fatal(err)
	}
	w2 := c2.EmpiricalWorkload()
	if w2.PvmCPU.Mean() != 294 {
		t.Fatalf("fallback broken: %v", w2.PvmCPU.Mean())
	}
}

func TestClusteredWorkload(t *testing.T) {
	recs := genTrace(t, 50e6)
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.ClusteredWorkload(8)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.AppCPU.(rng.Mixture); !ok {
		t.Fatalf("AppCPU should be a mixture, is %T", w.AppCPU)
	}
	// The mixture mean preserves the sample mean exactly (weighted cluster
	// centers reconstruct the total).
	appCPU := c.Stats[ClassResource{trace.ProcApplication, trace.CPU}]
	if math.Abs(w.AppCPU.Mean()-appCPU.Mean) > 1e-6*appCPU.Mean {
		t.Fatalf("mixture mean %v != sample mean %v", w.AppCPU.Mean(), appCPU.Mean)
	}
	if _, err := c.ClusteredWorkload(0); err == nil {
		t.Fatal("k=0 should fail")
	}
	// Missing classes fall back.
	only := []trace.Record{
		{StartUS: 0, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 5},
		{StartUS: 10, PID: 1, Process: trace.ProcApplication, Resource: trace.CPU, DurationUS: 7},
	}
	c2, err := Characterize(only)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := c2.ClusteredWorkload(4)
	if err != nil {
		t.Fatal(err)
	}
	if w2.PvmCPU.Mean() != 294 {
		t.Fatal("fallback broken")
	}
}

// Simulations under the fitted and empirical workloads must agree on the
// headline metrics within a modest tolerance — the §2.3.2 fitting step
// preserves the behavior that matters.
func TestFittedVsEmpiricalSimulation(t *testing.T) {
	recs := genTrace(t, 50e6)
	c, err := Characterize(recs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(w core.Workload) core.Result {
		cfg := core.DefaultConfig()
		cfg.Nodes = 2
		cfg.Duration = 10e6
		cfg.Workload = w
		m, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m.Run()
	}
	fitted := run(c.Workload())
	empirical := run(c.EmpiricalWorkload())
	if rel := math.Abs(fitted.AppCPUUtilPct-empirical.AppCPUUtilPct) / fitted.AppCPUUtilPct; rel > 0.10 {
		t.Fatalf("app util: fitted %v vs empirical %v", fitted.AppCPUUtilPct, empirical.AppCPUUtilPct)
	}
	if rel := math.Abs(fitted.PdCPUTimePerNodeSec-empirical.PdCPUTimePerNodeSec) / fitted.PdCPUTimePerNodeSec; rel > 0.25 {
		t.Fatalf("Pd time: fitted %v vs empirical %v", fitted.PdCPUTimePerNodeSec, empirical.PdCPUTimePerNodeSec)
	}
}

type fakeFit struct{}

func (fakeFit) Name() string           { return "fake" }
func (fakeFit) CDF(float64) float64    { return 0 }
func (fakeFit) InvCDF(float64) float64 { return 0 }
func (fakeFit) PDF(float64) float64    { return 0 }
func (fakeFit) Mean() float64          { return 42 }
func (fakeFit) String() string         { return "fake" }
