// Package scenario provides a declarative JSON representation of ROCC
// simulation configurations, so experiment specifications can be saved,
// versioned, shared, and replayed exactly — the off-the-shelf packaging
// the paper's Discussion argues instrumentation-system components need.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/rng"
)

// DistSpec is the JSON form of a probability distribution, in the
// notation of Table 2.
type DistSpec struct {
	Type  string  `json:"type"` // exponential, lognormal, weibull, gamma, uniform, constant
	Mean  float64 `json:"mean,omitempty"`
	SD    float64 `json:"sd,omitempty"`
	Shape float64 `json:"shape,omitempty"`
	Scale float64 `json:"scale,omitempty"`
	Low   float64 `json:"low,omitempty"`
	High  float64 `json:"high,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// Dist materializes the spec.
func (d DistSpec) Dist() (rng.Dist, error) {
	switch strings.ToLower(d.Type) {
	case "exponential":
		if d.Mean <= 0 {
			return nil, fmt.Errorf("scenario: exponential needs mean > 0")
		}
		return rng.Exponential{MeanVal: d.Mean}, nil
	case "lognormal":
		if d.Mean <= 0 || d.SD < 0 {
			return nil, fmt.Errorf("scenario: lognormal needs mean > 0, sd >= 0")
		}
		return rng.Lognormal{MeanVal: d.Mean, SD: d.SD}, nil
	case "weibull":
		if d.Shape <= 0 || d.Scale <= 0 {
			return nil, fmt.Errorf("scenario: weibull needs positive shape and scale")
		}
		return rng.Weibull{Shape: d.Shape, Scale: d.Scale}, nil
	case "gamma":
		if d.Shape <= 0 || d.Scale <= 0 {
			return nil, fmt.Errorf("scenario: gamma needs positive shape and scale")
		}
		return rng.GammaDist{Shape: d.Shape, Scale: d.Scale}, nil
	case "uniform":
		if d.Low < 0 || d.High <= d.Low {
			return nil, fmt.Errorf("scenario: uniform needs 0 <= low < high")
		}
		return rng.UniformDist{Low: d.Low, High: d.High}, nil
	case "constant":
		if d.Value < 0 {
			return nil, fmt.Errorf("scenario: constant needs value >= 0")
		}
		return rng.Constant{Value: d.Value}, nil
	case "":
		return nil, nil // absent: caller applies its default
	}
	return nil, fmt.Errorf("scenario: unknown distribution type %q", d.Type)
}

// SpecOf converts a distribution back to its JSON form. Unknown types
// (e.g. Empirical) degrade to a constant at the mean.
func SpecOf(d rng.Dist) DistSpec {
	switch v := d.(type) {
	case rng.Exponential:
		return DistSpec{Type: "exponential", Mean: v.MeanVal}
	case rng.Lognormal:
		return DistSpec{Type: "lognormal", Mean: v.MeanVal, SD: v.SD}
	case rng.Weibull:
		return DistSpec{Type: "weibull", Shape: v.Shape, Scale: v.Scale}
	case rng.GammaDist:
		return DistSpec{Type: "gamma", Shape: v.Shape, Scale: v.Scale}
	case rng.UniformDist:
		return DistSpec{Type: "uniform", Low: v.Low, High: v.High}
	case rng.Constant:
		return DistSpec{Type: "constant", Value: v.Value}
	case nil:
		return DistSpec{}
	}
	return DistSpec{Type: "constant", Value: d.Mean()}
}

// WorkloadSpec is the JSON form of a core.Workload; absent fields take
// the Table 2 defaults.
type WorkloadSpec struct {
	AppCPU               DistSpec `json:"app_cpu,omitempty"`
	AppNet               DistSpec `json:"app_net,omitempty"`
	PvmCPU               DistSpec `json:"pvm_cpu,omitempty"`
	PvmNet               DistSpec `json:"pvm_net,omitempty"`
	PvmInterarrival      DistSpec `json:"pvm_interarrival,omitempty"`
	OtherCPU             DistSpec `json:"other_cpu,omitempty"`
	OtherNet             DistSpec `json:"other_net,omitempty"`
	OtherCPUInterarrival DistSpec `json:"other_cpu_interarrival,omitempty"`
	OtherNetInterarrival DistSpec `json:"other_net_interarrival,omitempty"`
	MainCPU              DistSpec `json:"main_cpu,omitempty"`
}

// Spec is the JSON form of a core.Config.
type Spec struct {
	Arch           string       `json:"arch"` // now, smp, mpp
	Nodes          int          `json:"nodes"`
	AppProcs       int          `json:"app_procs"`
	Pds            int          `json:"pds,omitempty"`
	SamplingPeriod float64      `json:"sampling_period_us"`
	Policy         string       `json:"policy"`               // a -policy spec: cf, bf:<n>, abf, abf:<ms>
	BatchSize      int          `json:"batch_size,omitempty"` // older files' default batch for a bare "bf"; never written
	Forwarding     string       `json:"forwarding,omitempty"` // direct, tree
	PipeCapacity   int          `json:"pipe_capacity,omitempty"`
	Quantum        float64      `json:"quantum_us,omitempty"`
	Duration       float64      `json:"duration_us"`
	Warmup         float64      `json:"warmup_us,omitempty"`
	BarrierPeriod  float64      `json:"barrier_period_us,omitempty"`
	FlushTimeout   float64      `json:"flush_timeout_us,omitempty"`
	DedicatedHost  bool         `json:"dedicated_host,omitempty"`
	Background     *bool        `json:"background,omitempty"` // nil = true
	Seed           uint64       `json:"seed,omitempty"`
	Workload       WorkloadSpec `json:"workload,omitempty"`
}

// Config materializes the spec into a validated core.Config.
func (s Spec) Config() (core.Config, error) {
	cfg := core.DefaultConfig()
	switch strings.ToLower(s.Arch) {
	case "now", "":
		cfg.Arch = core.NOW
	case "smp":
		cfg.Arch = core.SMP
	case "mpp":
		cfg.Arch = core.MPP
	default:
		return cfg, fmt.Errorf("scenario: unknown arch %q", s.Arch)
	}
	cfg.Nodes = s.Nodes
	cfg.AppProcs = s.AppProcs
	if s.Pds != 0 {
		cfg.Pds = s.Pds
	}
	cfg.SamplingPeriod = s.SamplingPeriod
	if s.Policy != "" {
		strategy, err := forward.ParseStrategy(s.Policy, s.BatchSize)
		if err != nil {
			return cfg, fmt.Errorf("scenario: %w", err)
		}
		cfg.Strategy = strategy
	}
	if s.Forwarding != "" {
		fwd, err := forward.ParseConfig(s.Forwarding)
		if err != nil {
			return cfg, fmt.Errorf("scenario: %w", err)
		}
		cfg.Forwarding = fwd
	}
	if s.PipeCapacity != 0 {
		cfg.PipeCapacity = s.PipeCapacity
	}
	if s.Quantum != 0 {
		cfg.Quantum = s.Quantum
	}
	cfg.Duration = s.Duration
	cfg.Warmup = s.Warmup
	cfg.BarrierPeriod = s.BarrierPeriod
	cfg.FlushTimeout = s.FlushTimeout
	cfg.DedicatedHost = s.DedicatedHost
	if s.Background != nil {
		cfg.Background = *s.Background
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	if err := applyWorkload(&cfg.Workload, s.Workload); err != nil {
		return cfg, err
	}
	return cfg.Validate()
}

// applyWorkload sets each distribution the spec gives. An interarrival
// needs a positive mean: at 0, a constant one would schedule arrivals
// forever without advancing simulated time.
func applyWorkload(w *core.Workload, s WorkloadSpec) error {
	fields := []struct {
		name         string
		dst          *rng.Dist
		spec         DistSpec
		interarrival bool
	}{
		{"app_cpu", &w.AppCPU, s.AppCPU, false}, {"app_net", &w.AppNet, s.AppNet, false},
		{"pvm_cpu", &w.PvmCPU, s.PvmCPU, false}, {"pvm_net", &w.PvmNet, s.PvmNet, false},
		{"pvm_interarrival", &w.PvmInterarrival, s.PvmInterarrival, true},
		{"other_cpu", &w.OtherCPU, s.OtherCPU, false}, {"other_net", &w.OtherNet, s.OtherNet, false},
		{"other_cpu_interarrival", &w.OtherCPUInterarrival, s.OtherCPUInterarrival, true},
		{"other_net_interarrival", &w.OtherNetInterarrival, s.OtherNetInterarrival, true},
		{"main_cpu", &w.MainCPU, s.MainCPU, false},
	}
	for _, f := range fields {
		d, err := f.spec.Dist()
		if err != nil {
			return fmt.Errorf("%w (workload.%s)", err, f.name)
		}
		if d == nil {
			continue
		}
		if f.interarrival && !(d.Mean() > 0) {
			return fmt.Errorf("scenario: workload.%s needs mean > 0", f.name)
		}
		*f.dst = d
	}
	return nil
}

// FromConfig converts a core.Config into its JSON form. The strategy
// serializes as its String, which for every built-in is the -policy spec
// Config parses back, so distributed workers reconstruct it exactly. A nil
// strategy is CF.
func FromConfig(cfg core.Config) Spec {
	bg := cfg.Background
	policy := "cf"
	if cfg.Strategy != nil {
		policy = cfg.Strategy.String()
	}
	s := Spec{
		Arch:           strings.ToLower(cfg.Arch.String()),
		Nodes:          cfg.Nodes,
		AppProcs:       cfg.AppProcs,
		Pds:            cfg.Pds,
		SamplingPeriod: cfg.SamplingPeriod,
		Policy:         policy,
		Forwarding:     cfg.Forwarding.String(),
		PipeCapacity:   cfg.PipeCapacity,
		Quantum:        cfg.Quantum,
		Duration:       cfg.Duration,
		Warmup:         cfg.Warmup,
		BarrierPeriod:  cfg.BarrierPeriod,
		FlushTimeout:   cfg.FlushTimeout,
		DedicatedHost:  cfg.DedicatedHost,
		Background:     &bg,
		Seed:           cfg.Seed,
		Workload: WorkloadSpec{
			AppCPU:               SpecOf(cfg.Workload.AppCPU),
			AppNet:               SpecOf(cfg.Workload.AppNet),
			PvmCPU:               SpecOf(cfg.Workload.PvmCPU),
			PvmNet:               SpecOf(cfg.Workload.PvmNet),
			PvmInterarrival:      SpecOf(cfg.Workload.PvmInterarrival),
			OtherCPU:             SpecOf(cfg.Workload.OtherCPU),
			OtherNet:             SpecOf(cfg.Workload.OtherNet),
			OtherCPUInterarrival: SpecOf(cfg.Workload.OtherCPUInterarrival),
			OtherNetInterarrival: SpecOf(cfg.Workload.OtherNetInterarrival),
			MainCPU:              SpecOf(cfg.Workload.MainCPU),
		},
	}
	return s
}

// Load reads a JSON scenario.
func Load(r io.Reader) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// Save writes a JSON scenario, indented for human editing.
func Save(w io.Writer, s Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
