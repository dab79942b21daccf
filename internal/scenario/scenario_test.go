package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/rng"
)

func TestRoundTripDefaultConfig(t *testing.T) {
	orig := core.DefaultConfig()
	orig.Arch = core.MPP
	orig.Strategy = forward.NewFixedBF(32)
	orig.Forwarding = forward.Tree
	orig.Warmup = 1e6
	orig.Seed = 77

	var buf bytes.Buffer
	if err := Save(&buf, FromConfig(orig)); err != nil {
		t.Fatal(err)
	}
	spec, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if got.Arch != orig.Arch || got.Nodes != orig.Nodes || got.Strategy != orig.Strategy ||
		got.Forwarding != orig.Forwarding ||
		got.Warmup != orig.Warmup || got.Seed != orig.Seed ||
		got.SamplingPeriod != orig.SamplingPeriod || got.DedicatedHost != orig.DedicatedHost {
		t.Fatalf("round trip changed config:\norig %+v\ngot  %+v", orig, got)
	}
	if got.Workload.AppCPU.Mean() != orig.Workload.AppCPU.Mean() {
		t.Fatal("workload lost in round trip")
	}
	// Round-tripped configs simulate identically.
	m1, err := core.New(orig)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.New(got)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := m1.Cfg, m2.Cfg
	c1.Duration, c2.Duration = 1e6, 1e6
	r1, err := core.RunReplications(c1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.RunReplications(c2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Results[0], r2.Results[0]) {
		t.Fatal("round-tripped scenario simulates differently")
	}
}

func TestMinimalSpec(t *testing.T) {
	in := `{"nodes": 4, "app_procs": 1, "sampling_period_us": 40000, "duration_us": 1000000}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Arch != core.NOW || cfg.Strategy != forward.NewCF() || cfg.Pds != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Workload.AppCPU.Mean() != 2213 {
		t.Fatal("Table 2 workload default missing")
	}
	if !cfg.Background {
		t.Fatal("background should default on")
	}
}

func TestWorkloadOverride(t *testing.T) {
	in := `{
		"nodes": 1, "app_procs": 1, "sampling_period_us": 10000, "duration_us": 1,
		"workload": {
			"app_cpu": {"type": "gamma", "shape": 2, "scale": 1000},
			"app_net": {"type": "constant", "value": 50}
		}
	}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Workload.AppCPU.(rng.GammaDist); !ok {
		t.Fatalf("app cpu type %T", cfg.Workload.AppCPU)
	}
	if cfg.Workload.AppNet.Mean() != 50 {
		t.Fatal("constant override lost")
	}
	// Unspecified fields keep defaults.
	if cfg.Workload.PvmCPU.Mean() != 294 {
		t.Fatal("pvm default lost")
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		`{"arch": "vax", "nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1}`,
		`{"policy": "xy", "nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1}`,
		`{"forwarding": "ring", "nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1}`,
		`{"nodes": 0, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1}`,
		`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1,
		  "workload": {"app_cpu": {"type": "noise"}}}`,
		`{"unknown_field": 1}`,
		// A negative size or period used to run as its default: pipe
		// capacity 256, one daemon, no barrier, no flush timer.
		`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1, "pipe_capacity": -7}`,
		`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1, "quantum_us": -5}`,
		`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1, "pds": -2}`,
		`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1, "barrier_period_us": -3}`,
		`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1, "duration_us": 1, "flush_timeout_us": -9}`,
	}
	for i, in := range bad {
		spec, err := Load(strings.NewReader(in))
		if err != nil {
			continue // rejected at decode (unknown field case)
		}
		if _, err := spec.Config(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// A negative demand reached the CPU or the network and panicked there, and
// a zero interarrival ran without advancing simulated time until memory
// ran out. Each must be a scenario error.
func TestSpecRejectsUnusableDistributions(t *testing.T) {
	cases := []struct{ name, workload string }{
		{"negative constant demand", `{"app_cpu":{"type":"constant","value":-5}}`},
		{"negative uniform demand", `{"app_net":{"type":"uniform","low":-100,"high":-1}}`},
		{"uniform reaching below 0", `{"pvm_cpu":{"type":"uniform","low":-1,"high":9}}`},
		{"zero pvm interarrival", `{"pvm_interarrival":{"type":"constant","value":0}}`},
		{"zero other cpu interarrival", `{"other_cpu_interarrival":{"type":"constant","value":0}}`},
		{"zero other net interarrival", `{"other_net_interarrival":{"type":"constant","value":0}}`},
	}
	for _, tc := range cases {
		in := `{"nodes": 1, "app_procs": 1, "sampling_period_us": 1000, "duration_us": 1000,
			"workload": ` + tc.workload + `}`
		spec, err := Load(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if _, err := spec.Config(); err == nil {
			t.Errorf("%s: Config accepted it", tc.name)
		}
	}
	// A zero demand is a valid (if degenerate) demand.
	spec, err := Load(strings.NewReader(`{"nodes": 1, "app_procs": 1, "sampling_period_us": 1000,
		"duration_us": 1000, "workload": {"app_net":{"type":"constant","value":0}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Config(); err != nil {
		t.Fatalf("zero constant demand: %v", err)
	}
}

func TestDistSpecRoundTrips(t *testing.T) {
	dists := []rng.Dist{
		rng.Exponential{MeanVal: 223},
		rng.Lognormal{MeanVal: 2213, SD: 3034},
		rng.Weibull{Shape: 1.5, Scale: 100},
		rng.GammaDist{Shape: 2, Scale: 50},
		rng.UniformDist{Low: 1, High: 9},
		rng.Constant{Value: 5},
	}
	for _, d := range dists {
		spec := SpecOf(d)
		got, err := spec.Dist()
		if err != nil {
			t.Fatalf("%T: %v", d, err)
		}
		if got != d {
			t.Fatalf("%T round trip: %v != %v", d, got, d)
		}
	}
	// Empirical degrades to constant-at-mean.
	spec := SpecOf(rng.Empirical{Values: []float64{2, 4}})
	if spec.Type != "constant" || spec.Value != 3 {
		t.Fatalf("empirical degraded to %+v", spec)
	}
	// Nil distribution: empty spec, nil result.
	if s := SpecOf(nil); s.Type != "" {
		t.Fatalf("nil spec %+v", s)
	}
	d, err := DistSpec{}.Dist()
	if err != nil || d != nil {
		t.Fatal("empty spec should yield nil dist")
	}
	badSpecs := []DistSpec{
		{Type: "exponential"},
		{Type: "lognormal", Mean: -1},
		{Type: "weibull"},
		{Type: "gamma", Shape: -1},
		{Type: "uniform", Low: 5, High: 5},
	}
	for i, s := range badSpecs {
		if _, err := s.Dist(); err == nil {
			t.Errorf("bad spec %d should fail", i)
		}
	}
}
