package rocc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPublicAPISimulate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 2e6
	cfg.Nodes = 2
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesReceived == 0 || res.PdCPUTimePerNodeSec <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestPublicAPIHeadline(t *testing.T) {
	// The paper's headline through the public API: BF cuts daemon
	// overhead by more than 60% versus CF at a fast sampling rate.
	base := DefaultConfig()
	base.Duration = 5e6
	base.Nodes = 4
	base.SamplingPeriod = 5000

	cf := base
	cf.Strategy = NewCFStrategy()
	rcf, err := Simulate(cf)
	if err != nil {
		t.Fatal(err)
	}
	bf := base
	bf.Strategy = NewFixedBFStrategy(32)
	rbf, err := Simulate(bf)
	if err != nil {
		t.Fatal(err)
	}
	if red := 1 - rbf.PdCPUTimePerNodeSec/rcf.PdCPUTimePerNodeSec; red < 0.6 {
		t.Fatalf("BF reduction %.0f%%, want >60%%", red*100)
	}
}

func TestPublicAPIReplications(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e6
	cfg.Nodes = 2
	rep, err := SimulateReplications(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ci := rep.CI(func(r Result) float64 { return r.PdCPUUtilPct }, 0.90)
	if ci.Mean <= 0 {
		t.Fatalf("CI %+v", ci)
	}
}

func TestPublicAPIAnalytic(t *testing.T) {
	p := DefaultAnalyticParams()
	m := p.NOW()
	if m.PdCPUUtil <= 0 || m.LatencyUS <= 0 {
		t.Fatalf("analytic metrics %+v", m)
	}
	if p.MPPTree().PdCPUUtil <= p.MPPDirect().PdCPUUtil {
		t.Fatal("tree should cost more daemon CPU")
	}
}

func TestPublicAPIMeasure(t *testing.T) {
	res, err := Measure(MeasureConfig{
		Kernel:         "is",
		Strategy:       NewCFStrategy(),
		SamplingPeriod: 2 * time.Millisecond,
		Duration:       50 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Collector.Samples == 0 {
		t.Fatal("no samples measured")
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	if len(Experiments()) < 30 {
		t.Fatalf("only %d experiments exposed", len(Experiments()))
	}
	e, ok := ExperimentByID("fig9")
	if !ok {
		t.Fatal("fig9 missing")
	}
	opt := DefaultExperimentOptions()
	opt.DurationUS = 1e5
	var buf bytes.Buffer
	if err := e.Run(&buf, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Fatal("figure output missing title")
	}
}

func TestPublicAPICharacterization(t *testing.T) {
	recs, err := GenerateTrace(TraceGenConfig{Seed: 1, DurationUS: 20e6})
	if err != nil {
		t.Fatal(err)
	}
	c, err := CharacterizeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Workload()
	if w.AppCPU == nil || w.AppCPU.Mean() < 1500 || w.AppCPU.Mean() > 3000 {
		t.Fatalf("characterized AppCPU mean %v", w.AppCPU.Mean())
	}
	// The characterized workload drives a simulation directly.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.Duration = 1e6
	cfg.Workload = w
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIScenario(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	var buf bytes.Buffer
	if err := SaveScenario(&buf, ScenarioOf(cfg)); err != nil {
		t.Fatal(err)
	}
	s, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes != 3 {
		t.Fatalf("round trip nodes %d", got.Nodes)
	}
}

func TestModelInspection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e6
	cfg.Nodes = 2
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Daemons) != 2 || len(m.Apps) != 2 {
		t.Fatalf("model shape: %d daemons, %d apps", len(m.Daemons), len(m.Apps))
	}
	res := m.Run()
	if res.DurationSec != 1 {
		t.Fatalf("duration %v", res.DurationSec)
	}
}

func TestPublicAPIForwardStrategy(t *testing.T) {
	// A parsed strategy spec drives a simulation through Config.Strategy.
	strategy, err := ParseForwardStrategy("abf", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Duration = 1e6
	cfg.Nodes = 2
	cfg.Strategy = strategy
	res, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesReceived == 0 {
		t.Fatal("adaptive run delivered no samples")
	}
	if res.AdaptiveFinalBatchMean <= 0 {
		t.Fatalf("adaptive telemetry missing: %+v", res)
	}
	// Built-in strategies render as their -policy specs.
	if got := NewFixedBFStrategy(16).String(); got != "bf:16" {
		t.Fatalf("fixed strategy renders %q", got)
	}
	if got := NewCFStrategy().String(); got != "cf" {
		t.Fatalf("cf strategy renders %q", got)
	}
	if _, err := ParseForwardStrategy("bf:0", 32); err == nil {
		t.Fatal("bf:0 must be rejected")
	}
	if _, err := ParseForwardStrategy("bf", 0); err == nil {
		t.Fatal("bare bf without a default batch must be rejected")
	}
}

func TestPublicAPISweepDistributed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 0.5e6
	cfg.Nodes = 2
	jobs := []SweepJob{
		{Spec: ScenarioOf(cfg), Seed: 42},
		{Spec: ScenarioOf(cfg), Seed: 43},
	}
	got, err := SweepDistributed(jobs, SweepDistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	cfg.Seed = 42
	want, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Fatal("SweepDistributed job 0 diverges from Simulate at the same seed")
	}
	if reflect.DeepEqual(got[1], want) {
		t.Fatal("distinct seeds produced identical results")
	}
}
