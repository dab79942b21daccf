package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/obs"
	"rocc/internal/trace"
)

func obsTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Duration = 2e6
	cfg.Seed = 7
	return cfg
}

// The acceptance criterion of the observability layer: a traced run
// exported as internal/trace records must, after rocctrace-style
// analysis, reproduce the run's own Result utilization per class within
// 1%. The sink records every CPU, so the trace is the Result's
// accounting seen through the other pipeline.
func TestTraceRecordsMatchResultWithinOnePercent(t *testing.T) {
	cfg := obsTestConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()

	recs := c.Sink.TraceRecords()
	if len(recs) == 0 {
		t.Fatal("no occupancy records captured")
	}
	an, err := trace.Analyze(recs)
	if err != nil {
		t.Fatal(err)
	}

	// Per-class CPU totals from the trace vs the Result's utilization,
	// both normalized to percent of total node-CPU capacity.
	capacityUS := float64(cfg.Nodes) * cfg.Duration
	check := func(class string, wantPct float64) {
		t.Helper()
		tot, _ := an.TotalsFor(class)
		gotPct := tot.CPUTimeUS / capacityUS * 100
		if diff := math.Abs(gotPct - wantPct); diff > wantPct*0.01+1e-9 {
			t.Errorf("%s CPU: trace %.4f%%, Result %.4f%% (diff > 1%%)", class, gotPct, wantPct)
		}
	}
	check(trace.ProcApplication, res.AppCPUUtilPct)
	check(trace.ProcPd, res.PdCPUUtilPct)
	check(trace.ProcPvmd, res.PvmCPUUtilPct)
	check(trace.ProcOther, res.OtherCPUUtilPct)
	// Main runs on NodeCPUs[0] here (no dedicated host), so its trace
	// total normalizes against a single CPU.
	mainTot, _ := an.TotalsFor(trace.ProcParadyn)
	gotMain := mainTot.CPUTimeUS / cfg.Duration * 100
	if diff := math.Abs(gotMain - res.MainCPUUtilPct); diff > res.MainCPUUtilPct*0.01+1e-9 {
		t.Errorf("main CPU: trace %.4f%%, Result %.4f%%", gotMain, res.MainCPUUtilPct)
	}
	// Network, same 1% band.
	var netUS float64
	for _, tot := range an.Totals {
		netUS += tot.NetTimeUS
	}
	gotNet := netUS / cfg.Duration * 100
	if diff := math.Abs(gotNet - res.NetUtilPct); diff > res.NetUtilPct*0.01+1e-9 {
		t.Errorf("network: trace %.4f%%, Result %.4f%%", gotNet, res.NetUtilPct)
	}
}

// The Chrome export of a real run must satisfy its own validator (the CI
// smoke step's check).
func TestChromeExportOfRunValidates(t *testing.T) {
	m, err := New(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	var buf bytes.Buffer
	if err := c.Sink.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1000 {
		t.Fatalf("suspiciously small trace: %d events", n)
	}
}

// Attaching the full observability layer must not perturb the simulation:
// samplers and observers only read state, so the Result (ignoring the
// observability-only quantile fields) is identical to an unobserved run.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Warmup = 2e5

	plain, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()

	observed, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := observed.EnableObservability(ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	got := observed.Run()

	// Blank the fields only the observed run can fill, then demand
	// exact equality.
	got.MonitoringLatencyP50Sec = 0
	got.MonitoringLatencyP99Sec = 0
	if !reflect.DeepEqual(got, base) {
		t.Errorf("observability changed the Result:\nbase: %+v\ngot:  %+v", base, got)
	}
	if c.Metrics.Generated.Value() == 0 || c.Metrics.Delivered.Value() == 0 {
		t.Error("metrics half recorded nothing")
	}
	if len(c.Metrics.Series()) == 0 {
		t.Error("no sampler series registered")
	}
	for _, s := range c.Metrics.Series() {
		if len(s.T) == 0 {
			t.Errorf("series %s is empty", s.Name)
		}
	}
}

// Metrics counters agree with the model's own accounting, and the
// quantile Result fields are populated and ordered.
func TestMetricsAgreeWithResult(t *testing.T) {
	m, err := New(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	mt := c.Metrics
	if got := int(mt.Generated.Value()); got != res.SamplesGenerated {
		t.Errorf("generated counter %d, Result %d", got, res.SamplesGenerated)
	}
	if got := int(mt.Delivered.Value()); got != res.SamplesReceived {
		t.Errorf("delivered counter %d, Result %d", got, res.SamplesReceived)
	}
	if got := int(mt.DeliveredMsgs.Value()); got != res.MessagesReceived {
		t.Errorf("messages counter %d, Result %d", got, res.MessagesReceived)
	}
	if got := int(mt.Forwards.Value()); got != res.MessagesForwarded {
		t.Errorf("forwards counter %d, Result %d", got, res.MessagesForwarded)
	}
	if mt.Events.Value() != m.Sim.Dispatched {
		t.Errorf("events counter %d, simulator dispatched %d", mt.Events.Value(), m.Sim.Dispatched)
	}
	if res.MonitoringLatencyP50Sec <= 0 || res.MonitoringLatencyP99Sec < res.MonitoringLatencyP50Sec {
		t.Errorf("quantiles not populated/ordered: p50=%v p99=%v",
			res.MonitoringLatencyP50Sec, res.MonitoringLatencyP99Sec)
	}
	if res.MonitoringLatencyMaxSec < res.MonitoringLatencyP99Sec {
		t.Errorf("p99 %v exceeds observed max %v", res.MonitoringLatencyP99Sec, res.MonitoringLatencyMaxSec)
	}
}

// Warmup removal applies to the observability layer like everything else:
// sample events recorded before the warmup boundary are discarded.
func TestObservabilityWarmupReset(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Warmup = 5e5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Trace: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if got := int(c.Metrics.Generated.Value()); got != res.SamplesGenerated {
		t.Errorf("post-warmup generated counter %d, Result %d", got, res.SamplesGenerated)
	}
	for _, sp := range c.Sink.Spans() {
		if sp.StartUS+sp.DurUS <= cfg.Warmup {
			t.Fatalf("span entirely inside warmup survived reset: %+v", sp)
			break
		}
	}
}

// Guard rails: double-enable and empty options are errors; the retransmit
// observer wires through a fault plan.
func TestEnableObservabilityErrors(t *testing.T) {
	m, err := New(obsTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{}); err == nil {
		t.Error("empty options accepted")
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EnableObservability(ObsOptions{Trace: true}); err == nil {
		t.Error("double enable accepted")
	}
}

// Every lifecycle observer is attached: a faulty run with retransmissions
// reports them through the collector too.
func TestObservabilityCoversFaultLayer(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Faults = &faults.Plan{
		Seed:       11,
		Loss:       0.2,
		CrashMTBF:  3e5,
		Resilience: faults.Resilience{Retransmit: true},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.EnableObservability(ObsOptions{Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.Retransmits == 0 {
		t.Skip("plan injected no retransmissions at this seed")
	}
	if got := int(c.Metrics.Retransmits.Value()); got != res.Retransmits {
		t.Errorf("retransmit counter %d, Result %d", got, res.Retransmits)
	}
	if got := int(c.Metrics.Crashes.Value()); got != res.Crashes {
		t.Errorf("crash counter %d, Result %d", got, res.Crashes)
	}
}
