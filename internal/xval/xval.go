// Package xval compares the repo's two evaluation routes — the
// closed-form operational analysis of Section 3 (equations (1)-(16)) and
// the discrete-event ROCC simulation of Section 4 — over a shared scenario
// grid, and renders the disagreement as an error surface: per-metric
// relative error of the analytic value against the simulated one, CI
// coverage (does the analytic prediction fall inside the simulation
// confidence interval?), and worst-case divergence per
// architecture/policy cell. This turns the paper's Section 4 validation
// argument into a single regenerable, CI-gated artifact.
package xval

import (
	"encoding/json"
	"errors"
	"math"

	"rocc/internal/analytic"
	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/stats"
)

// usPerSec is the single, explicit latency unit conversion: core.Result
// reports latencies in seconds and analytic.Metrics in microseconds.
// Estimates normalizes both to microseconds.
const usPerSec = 1e6

// OptFloat is a float64 metric value that may be missing (NaN: the
// model does not report this metric) or diverged (±Inf: the analytic
// queue is at or beyond saturation). It marshals missing values as JSON
// null and infinities as the strings "+inf"/"-inf", since JSON numbers
// cannot encode either.
type OptFloat float64

// Missing returns the missing-value marker.
func Missing() OptFloat { return OptFloat(math.NaN()) }

// IsMissing reports whether the value is absent.
func (o OptFloat) IsMissing() bool { return math.IsNaN(float64(o)) }

// Finite reports whether the value is present and finite.
func (o OptFloat) Finite() bool {
	f := float64(o)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// V returns the raw float64 (NaN when missing).
func (o OptFloat) V() float64 { return float64(o) }

// MarshalJSON implements json.Marshaler.
func (o OptFloat) MarshalJSON() ([]byte, error) {
	f := float64(o)
	switch {
	case math.IsNaN(f):
		return []byte("null"), nil
	case math.IsInf(f, 1):
		return []byte(`"+inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-inf"`), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON implements json.Unmarshaler, accepting the MarshalJSON
// encodings.
func (o *OptFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case "null":
		*o = Missing()
		return nil
	case `"+inf"`:
		*o = OptFloat(math.Inf(1))
		return nil
	case `"-inf"`:
		*o = OptFloat(math.Inf(-1))
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*o = OptFloat(f)
	return nil
}

// Estimates is the common output schema both models map onto: per-class
// CPU and network utilizations as percentages, sample latencies in
// microseconds. Metrics a model cannot produce are Missing.
// The HW fields are confidence-interval half-widths (simulation only;
// closed forms carry no interval).
type Estimates struct {
	PdCPUUtilPct   OptFloat `json:"pd_cpu_util_pct"`   // daemon CPU / node
	MainCPUUtilPct OptFloat `json:"main_cpu_util_pct"` // main Paradyn process CPU
	AppCPUUtilPct  OptFloat `json:"app_cpu_util_pct"`  // application CPU / node
	PdNetUtilPct   OptFloat `json:"pd_net_util_pct"`   // IS network traffic
	LatencyMeanUS  OptFloat `json:"latency_mean_us"`   // monitoring latency / sample
	LatencyP50US   OptFloat `json:"latency_p50_us"`
	LatencyP99US   OptFloat `json:"latency_p99_us"`

	PdCPUUtilHW   OptFloat `json:"pd_cpu_util_hw"`
	MainCPUUtilHW OptFloat `json:"main_cpu_util_hw"`
	AppCPUUtilHW  OptFloat `json:"app_cpu_util_hw"`
	PdNetUtilHW   OptFloat `json:"pd_net_util_hw"`
	LatencyMeanHW OptFloat `json:"latency_mean_hw"`
}

// emptyEstimates returns an Estimates with every field Missing.
func emptyEstimates() Estimates {
	m := Missing()
	return Estimates{
		PdCPUUtilPct: m, MainCPUUtilPct: m, AppCPUUtilPct: m, PdNetUtilPct: m,
		LatencyMeanUS: m, LatencyP50US: m, LatencyP99US: m,
		PdCPUUtilHW: m, MainCPUUtilHW: m, AppCPUUtilHW: m, PdNetUtilHW: m,
		LatencyMeanHW: m,
	}
}

// MetricNames enumerates the cross-validated metrics in render order.
// (P50/P99 latency appear in Estimates but are not compared: only the
// simulation can produce them.)
var MetricNames = []string{
	"pd_cpu_util_pct",
	"main_cpu_util_pct",
	"app_cpu_util_pct",
	"pd_net_util_pct",
	"latency_mean_us",
}

// Metric returns the named metric value (Missing for unknown names).
func (e Estimates) Metric(name string) OptFloat {
	switch name {
	case "pd_cpu_util_pct":
		return e.PdCPUUtilPct
	case "main_cpu_util_pct":
		return e.MainCPUUtilPct
	case "app_cpu_util_pct":
		return e.AppCPUUtilPct
	case "pd_net_util_pct":
		return e.PdNetUtilPct
	case "latency_mean_us":
		return e.LatencyMeanUS
	case "latency_p50_us":
		return e.LatencyP50US
	case "latency_p99_us":
		return e.LatencyP99US
	}
	return Missing()
}

// HalfWidth returns the named metric's CI half-width (Missing when the
// estimates carry no interval).
func (e Estimates) HalfWidth(name string) OptFloat {
	switch name {
	case "pd_cpu_util_pct":
		return e.PdCPUUtilHW
	case "main_cpu_util_pct":
		return e.MainCPUUtilHW
	case "app_cpu_util_pct":
		return e.AppCPUUtilHW
	case "pd_net_util_pct":
		return e.PdNetUtilHW
	case "latency_mean_us":
		return e.LatencyMeanHW
	}
	return Missing()
}

// simulate runs a cell's Reps independent replications serially, since
// Run already fans cells out across Options.Workers, and aggregates them
// with Student-t confidence intervals at CILevel.
func simulate(cfg core.Config, opt Options) (Estimates, error) {
	rep, err := core.RunReplicationsParallel(cfg, opt.Reps, 1)
	if err != nil {
		return Estimates{}, err
	}
	return estimatesFromResults(rep.Results, opt.CILevel), nil
}

// estimatesFromResults aggregates replication Results into Estimates,
// converting core.Result's seconds to microseconds and computing mean and
// CI half-width per metric. With fewer than two replications the
// half-widths are Missing.
func estimatesFromResults(results []core.Result, level float64) Estimates {
	est := emptyEstimates()
	agg := func(f func(core.Result) float64) (OptFloat, OptFloat) {
		if len(results) == 0 {
			return Missing(), Missing()
		}
		vals := make([]float64, len(results))
		for i, r := range results {
			vals[i] = f(r)
		}
		if len(vals) < 2 {
			return OptFloat(vals[0]), Missing()
		}
		ci, err := stats.MeanCI(vals, level)
		if err != nil {
			return OptFloat(stats.MeanOf(vals)), Missing()
		}
		return OptFloat(ci.Mean), OptFloat(ci.HalfWidth)
	}
	est.PdCPUUtilPct, est.PdCPUUtilHW = agg(func(r core.Result) float64 { return r.PdCPUUtilPct })
	est.MainCPUUtilPct, est.MainCPUUtilHW = agg(func(r core.Result) float64 { return r.MainCPUUtilPct })
	est.AppCPUUtilPct, est.AppCPUUtilHW = agg(func(r core.Result) float64 { return r.AppCPUUtilPct })
	est.PdNetUtilPct, est.PdNetUtilHW = agg(func(r core.Result) float64 { return r.PdNetUtilPct })
	est.LatencyMeanUS, est.LatencyMeanHW = agg(func(r core.Result) float64 { return r.MonitoringLatencySec * usPerSec })
	est.LatencyP50US, _ = agg(func(r core.Result) float64 { return r.MonitoringLatencyP50Sec * usPerSec })
	est.LatencyP99US, _ = agg(func(r core.Result) float64 { return r.MonitoringLatencyP99Sec * usPerSec })
	return est
}

// Params maps a validated configuration onto the analytic parameters,
// taking the demands from the scenario's cost model and workload, so a
// re-parameterized scenario is compared with the matching analytic
// prediction rather than the Table 2 constants. A message of b samples
// costs the daemon what forward.CostModel's MsgCPU and MsgNet charge for
// it: the per-message demand plus the per-sample increment b−1 times.
func Params(cfg core.Config) analytic.Params {
	_, batch := forward.PolicyOf(cfg.Strategy)
	if batch == 0 { // adaptive BF has no fixed batch: price it at 1
		batch = 1
	}
	extra := float64(batch - 1)
	return analytic.Params{
		SamplingPeriod: cfg.SamplingPeriod,
		BatchSize:      float64(batch),
		AppProcs:       float64(cfg.AppProcs),
		Nodes:          float64(cfg.Nodes),
		Pds:            float64(cfg.Pds),
		DPdCPU:         cfg.Cost.PerMsgCPU.Mean() + cfg.Cost.PerSampleCPU*extra,
		DPdNet:         cfg.Cost.PerMsgNet.Mean() + cfg.Cost.PerSampleNet*extra,
		DPdmCPU:        cfg.Cost.Merge.Mean(),
		DParadynCPU:    cfg.Workload.MainCPU.Mean(),
	}
}

// analyticEstimates evaluates the Section 3 operational-analysis
// equations for the configuration's architecture and forwarding.
func analyticEstimates(cfg core.Config) (Estimates, error) {
	if cfg.SamplingPeriod <= 0 {
		return Estimates{}, errors.New("xval: analytic model needs a positive sampling period (uninstrumented cell)")
	}
	p := Params(cfg)
	if err := p.Validate(); err != nil {
		return Estimates{}, err
	}
	var m analytic.Metrics
	switch {
	case cfg.Arch == core.SMP:
		m = p.SMP()
	case cfg.Arch == core.MPP && cfg.Forwarding == forward.Tree:
		m = p.MPPTree()
	case cfg.Arch == core.MPP:
		m = p.MPPDirect()
	default:
		m = p.NOW()
	}
	est := emptyEstimates()
	est.PdCPUUtilPct = OptFloat(m.PdCPUUtil * 100)
	est.MainCPUUtilPct = OptFloat(m.ParadynCPUUtil * 100)
	est.AppCPUUtilPct = OptFloat(m.AppCPUUtil * 100)
	est.PdNetUtilPct = OptFloat(m.PdNetUtil * 100)
	est.LatencyMeanUS = OptFloat(m.LatencyUS) // already microseconds
	return est, nil
}
