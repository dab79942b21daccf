package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/rng"
)

// shortCfg returns a small, fast scenario for unit tests: 4 nodes, 10 s.
func shortCfg() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Duration = 10e6
	return cfg
}

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

func TestValidateDefaults(t *testing.T) {
	cfg := Config{Nodes: 1, AppProcs: 1, Duration: 1e6}
	v, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.PipeCapacity != 256 || v.Quantum != 10000 || v.Pds != 1 {
		t.Fatalf("defaults not applied: %+v", v)
	}
	if v.Workload.AppCPU == nil || v.Cost.PerMsgCPU == nil {
		t.Fatal("workload/cost defaults not applied")
	}
	if v.Strategy != forward.NewCF() {
		t.Fatalf("nil Strategy validated to %v, want cf", v.Strategy)
	}
}

// NaN passes every ordered comparison, so before the finiteness check a
// NaN sampling period ran without sampling, a NaN fault rate ran fault-free
// and a NaN MTBF panicked inside the simulator. An infinite Duration would
// never end; it is checked here through Validate only.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"SamplingPeriod NaN", func(c *Config) { c.SamplingPeriod = nan }},
		{"SamplingPeriod +Inf", func(c *Config) { c.SamplingPeriod = inf }},
		{"Duration NaN", func(c *Config) { c.Duration = nan }},
		{"Duration +Inf", func(c *Config) { c.Duration = inf }},
		{"Warmup NaN", func(c *Config) { c.Warmup = nan }},
		{"Quantum NaN", func(c *Config) { c.Quantum = nan }},
		{"BarrierPeriod +Inf", func(c *Config) { c.BarrierPeriod = inf }},
		{"FlushTimeout NaN", func(c *Config) { c.FlushTimeout = nan }},
		{"PhasePeriod NaN", func(c *Config) { c.PhasePeriod = nan }},
		{"Detailed.IOProb NaN", func(c *Config) { c.Detailed.IOProb = nan }},
		{"Detailed.SpawnPeriod -Inf", func(c *Config) { c.Detailed.SpawnPeriod = math.Inf(-1) }},
		{"Faults.CrashMTBF NaN", func(c *Config) { c.Faults = &faults.Plan{Loss: 0.05, CrashMTBF: nan} }},
		{"inactive Faults.Loss NaN", func(c *Config) { c.Faults = &faults.Plan{Loss: nan} }},
	}
	for _, tc := range cases {
		cfg := shortCfg()
		tc.set(&cfg)
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

// A negative period or size used to run silently as its zero meaning
// ("default" or "off"): a negative barrier period ran without barriers, a
// negative pipe capacity ran with 256 slots. Validate must reject each,
// and must still read zero as the default.
func TestValidateRejectsNegativePeriodsAndSizes(t *testing.T) {
	cases := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"BarrierPeriod", func(c *Config, v float64) { c.BarrierPeriod = v }},
		{"FlushTimeout", func(c *Config, v float64) { c.FlushTimeout = v }},
		{"PipeCapacity", func(c *Config, v float64) { c.PipeCapacity = int(v) }},
		{"Quantum", func(c *Config, v float64) { c.Quantum = v }},
		{"Pds", func(c *Config, v float64) { c.Pds = int(v) }},
		{"Detailed.SpawnPeriod", func(c *Config, v float64) { c.Detailed.SpawnPeriod = v }},
	}
	for _, tc := range cases {
		cfg := shortCfg()
		tc.set(&cfg, -1)
		if _, err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s = -1: Validate returned %v, want an error naming the field", tc.name, err)
		}
		cfg = shortCfg()
		tc.set(&cfg, 0)
		if _, err := cfg.Validate(); err != nil {
			t.Errorf("%s = 0: Validate returned %v, want the default", tc.name, err)
		}
	}
}

// Distributions reach Validate through the Go API without passing the
// scenario decoder's checks: a negative or non-finite mean or SD panicked
// in the CPU, the network or the fault layer, and a zero-mean
// interarrival never advanced simulated time.
func TestValidateRejectsUnusableDistributions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"AppCPU NaN mean", func(c *Config) { c.Workload.AppCPU = rng.Lognormal{MeanVal: nan, SD: 1} }},
		{"AppCPU NaN SD", func(c *Config) { c.Workload.AppCPU = rng.Lognormal{MeanVal: 10, SD: nan} }},
		{"AppCPU negative SD", func(c *Config) { c.Workload.AppCPU = rng.Lognormal{MeanVal: 10, SD: -1} }},
		{"AppNet negative constant", func(c *Config) { c.Workload.AppNet = rng.Constant{Value: -5} }},
		{"PvmNet negative uniform", func(c *Config) { c.Workload.PvmNet = rng.UniformDist{Low: -100, High: -1} }},
		{"OtherCPU +Inf", func(c *Config) { c.Workload.OtherCPU = rng.Exponential{MeanVal: inf} }},
		{"MainCPU negative", func(c *Config) { c.Workload.MainCPU = rng.Exponential{MeanVal: -1} }},
		{"PvmInterarrival zero", func(c *Config) { c.Workload.PvmInterarrival = rng.Constant{Value: 0} }},
		{"OtherCPUInterarrival zero", func(c *Config) { c.Workload.OtherCPUInterarrival = rng.Exponential{} }},
		{"OtherNetInterarrival zero", func(c *Config) { c.Workload.OtherNetInterarrival = rng.Constant{} }},
		{"PhaseWorkload negative", func(c *Config) {
			w := DefaultWorkload()
			w.AppCPU = rng.Constant{Value: -1}
			c.PhasePeriod, c.PhaseWorkload = 1000, &w
		}},
		{"Detailed.IOBlock NaN", func(c *Config) {
			c.Detailed.IOProb, c.Detailed.IOBlock = 0.1, rng.Exponential{MeanVal: nan}
		}},
		{"Faults.Delay negative", func(c *Config) {
			c.Faults = &faults.Plan{DelayProb: 0.1, Delay: rng.Constant{Value: -1}}
		}},
		{"Faults.CrashDowntime NaN", func(c *Config) {
			c.Faults = &faults.Plan{CrashMTBF: 1e5, CrashDowntime: rng.Exponential{MeanVal: nan}}
		}},
		{"Faults.SqueezeDuration negative", func(c *Config) {
			c.Faults = &faults.Plan{SqueezeMTBF: 1e5, SqueezeCapFrac: 0.5, SqueezeDuration: rng.UniformDist{Low: -5, High: 5}}
		}},
	}
	for _, tc := range cases {
		cfg := shortCfg()
		tc.set(&cfg)
		if _, err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
	if _, err := shortCfg().Validate(); err != nil {
		t.Fatalf("default distributions rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []Config{
		{Nodes: 0, AppProcs: 1, Duration: 1},
		{Nodes: 1, AppProcs: 0, Duration: 1},
		{Nodes: 1, AppProcs: 1, Duration: 0},
		{Nodes: 1, AppProcs: 1, Duration: 1, SamplingPeriod: -1},
		{Nodes: 1, AppProcs: 1, Duration: 1,
			Strategy: forward.NewAdaptiveBF(forward.ControllerConfig{MinBatch: 9, MaxBatch: 3})},
		{Nodes: 1, AppProcs: 1, Duration: 1, Arch: SMP, Pds: 5},
		{Nodes: 1, AppProcs: 1, Duration: 1, Arch: NOW, Forwarding: forward.Tree},
	}
	for i, c := range cases {
		if _, err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestArchAndAppTypeStrings(t *testing.T) {
	if NOW.String() != "NOW" || SMP.String() != "SMP" || MPP.String() != "MPP" {
		t.Fatal("arch strings")
	}
	if Arch(9).String() == "" {
		t.Fatal("unknown arch")
	}
	if ComputeIntensive.String() == CommIntensive.String() {
		t.Fatal("app type strings")
	}
	w := CommIntensive.Apply(DefaultWorkload())
	if w.AppNet.Mean() != 2000 {
		t.Fatalf("comm-intensive net mean %v", w.AppNet.Mean())
	}
	w = ComputeIntensive.Apply(DefaultWorkload())
	if w.AppNet.Mean() != 200 {
		t.Fatalf("compute-intensive net mean %v", w.AppNet.Mean())
	}
}

func TestModelAssemblyNOW(t *testing.T) {
	cfg := shortCfg()
	cfg.AppProcs = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.NodeCPUs) != 4 || len(m.Daemons) != 4 || len(m.Apps) != 8 {
		t.Fatalf("assembly: %d cpus, %d daemons, %d apps", len(m.NodeCPUs), len(m.Daemons), len(m.Apps))
	}
	if m.HostCPU == m.NodeCPUs[0] {
		t.Fatal("dedicated host should not alias node 0")
	}
	if len(m.Sources) != 8 { // pvm + other per node
		t.Fatalf("background sources %d", len(m.Sources))
	}
	for _, d := range m.Daemons {
		if len(d.Pipes) != 2 {
			t.Fatalf("daemon pipes %d, want 2", len(d.Pipes))
		}
	}
}

func TestModelAssemblySMP(t *testing.T) {
	cfg := shortCfg()
	cfg.Arch = SMP
	cfg.Nodes = 8    // CPUs
	cfg.AppProcs = 8 // total
	cfg.Pds = 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.NodeCPUs) != 1 {
		t.Fatal("SMP should have one CPU pool")
	}
	if len(m.Daemons) != 2 || len(m.Apps) != 8 {
		t.Fatalf("%d daemons, %d apps", len(m.Daemons), len(m.Apps))
	}
	if len(m.Daemons[0].Pipes) != 4 || len(m.Daemons[1].Pipes) != 4 {
		t.Fatal("pipes not split across daemons")
	}
	if len(m.Sources) != 2 {
		t.Fatalf("SMP should have one pvm+other pair, got %d sources", len(m.Sources))
	}
}

func TestSamplesFlowEndToEnd(t *testing.T) {
	cfg := shortCfg()
	res := mustRun(t, cfg)
	// 4 nodes x 1 proc x (10s / 40ms) = ~1000 samples generated.
	if res.SamplesGenerated < 900 || res.SamplesGenerated > 1000 {
		t.Fatalf("generated %d", res.SamplesGenerated)
	}
	// Nearly all should be received under CF (low load).
	if res.SamplesReceived < res.SamplesGenerated*9/10 {
		t.Fatalf("received %d of %d", res.SamplesReceived, res.SamplesGenerated)
	}
	if res.MonitoringLatencySec <= 0 || res.ThroughputPerSec <= 0 {
		t.Fatal("latency/throughput not recorded")
	}
	if res.PdCPUTimePerNodeSec <= 0 || res.MainCPUTimeSec <= 0 {
		t.Fatal("IS overhead not recorded")
	}
	if res.AppCPUUtilPct < 50 {
		t.Fatalf("app CPU util %v suspiciously low", res.AppCPUUtilPct)
	}
}

func TestUninstrumentedBaseline(t *testing.T) {
	cfg := shortCfg()
	cfg.SamplingPeriod = 0
	res := mustRun(t, cfg)
	if res.SamplesGenerated != 0 || res.SamplesReceived != 0 {
		t.Fatal("uninstrumented run produced samples")
	}
	if res.PdCPUTimePerNodeSec != 0 || res.MainCPUTimeSec != 0 {
		t.Fatal("uninstrumented run has IS overhead")
	}
	if res.AppCPUUtilPct <= 0 {
		t.Fatal("app made no progress")
	}
}

// The headline result: BF cuts direct IS overhead by well over 60% at a
// short sampling period, and app throughput does not suffer.
func TestBFReducesOverheadVsCF(t *testing.T) {
	base := shortCfg()
	base.SamplingPeriod = 5000 // 5 ms: high sampling rate

	cf := base
	cf.Strategy = forward.NewCF()
	rcf := mustRun(t, cf)

	bf := base
	bf.Strategy = forward.NewFixedBF(32)
	rbf := mustRun(t, bf)

	if rcf.PdCPUTimePerNodeSec <= 0 {
		t.Fatal("CF overhead missing")
	}
	reduction := 1 - rbf.PdCPUTimePerNodeSec/rcf.PdCPUTimePerNodeSec
	if reduction < 0.6 {
		t.Fatalf("BF reduced Pd CPU by %.0f%%, want >60%% (CF %.3fs, BF %.3fs)",
			reduction*100, rcf.PdCPUTimePerNodeSec, rbf.PdCPUTimePerNodeSec)
	}
	// Main process overhead drops too (~80% in the paper's tests).
	mainRed := 1 - rbf.MainCPUTimeSec/rcf.MainCPUTimeSec
	if mainRed < 0.5 {
		t.Fatalf("main overhead reduction only %.0f%%", mainRed*100)
	}
	// BF trades latency for overhead: batching adds accumulation delay.
	if rbf.MonitoringLatencySec <= rcf.MonitoringLatencySec {
		t.Fatalf("expected BF latency (%v) > CF latency (%v)",
			rbf.MonitoringLatencySec, rcf.MonitoringLatencySec)
	}
}

func TestSmallerSamplingPeriodRaisesOverhead(t *testing.T) {
	fast := shortCfg()
	fast.SamplingPeriod = 5000
	slow := shortCfg()
	slow.SamplingPeriod = 50000
	rf, rs := mustRun(t, fast), mustRun(t, slow)
	if rf.PdCPUTimePerNodeSec <= rs.PdCPUTimePerNodeSec {
		t.Fatalf("overhead at 5ms (%v) not above 50ms (%v)",
			rf.PdCPUTimePerNodeSec, rs.PdCPUTimePerNodeSec)
	}
}

func TestTreeForwardingCostsExtraDaemonCPU(t *testing.T) {
	base := shortCfg()
	base.Arch = MPP
	base.Nodes = 15 // complete binary tree of depth 4
	base.Duration = 20e6
	direct := base
	direct.Forwarding = forward.Direct
	tree := base
	tree.Forwarding = forward.Tree

	rd, rt := mustRun(t, direct), mustRun(t, tree)
	if rt.MessagesMerged == 0 {
		t.Fatal("tree forwarding performed no merges")
	}
	if rd.MessagesMerged != 0 {
		t.Fatal("direct forwarding should not merge")
	}
	// §4.4.2: tree forwarding has higher direct overhead (merge CPU).
	if rt.PdCPUTimePerNodeSec <= rd.PdCPUTimePerNodeSec {
		t.Fatalf("tree overhead %v not above direct %v",
			rt.PdCPUTimePerNodeSec, rd.PdCPUTimePerNodeSec)
	}
	// Samples still all arrive.
	if rt.SamplesReceived < rt.SamplesGenerated*8/10 {
		t.Fatalf("tree lost samples: %d of %d", rt.SamplesReceived, rt.SamplesGenerated)
	}
	// Messages traverse multiple hops.
	if rt.MessagesReceived == 0 {
		t.Fatal("no messages at main")
	}
}

func TestSMPBusSaturationBlocksApps(t *testing.T) {
	// §4.3.3: with many CPUs sharing one bus, application communication
	// saturates the bus and application CPU utilization collapses.
	small := shortCfg()
	small.Arch = SMP
	small.Nodes = 2
	small.AppProcs = 2
	small.Workload = CommIntensive.Apply(DefaultWorkload())

	big := small
	big.Nodes = 32
	big.AppProcs = 32

	rs, rb := mustRun(t, small), mustRun(t, big)
	if rb.AppCPUUtilPct >= rs.AppCPUUtilPct {
		t.Fatalf("bus saturation missing: util %v at 32 CPUs vs %v at 2",
			rb.AppCPUUtilPct, rs.AppCPUUtilPct)
	}
	if rb.NetUtilPct < 95 {
		t.Fatalf("bus not saturated: %v%%", rb.NetUtilPct)
	}
}

func TestPipeBlockingAtTinySamplingPeriod(t *testing.T) {
	// §4.3.3: a small pipe and fast sampling block the application.
	cfg := shortCfg()
	cfg.Nodes = 1
	cfg.SamplingPeriod = 1000 // 1 ms
	cfg.PipeCapacity = 4
	// Make the daemon slow to drain: communication-heavy app steals CPU.
	res := mustRun(t, cfg)
	if res.BlockedPuts == 0 {
		t.Skip("no blocking at this parameterization") // tolerated; checked harder below
	}
	if res.SamplesGenerated >= int(cfg.Duration/cfg.SamplingPeriod) {
		t.Fatal("blocking should reduce sample generation")
	}
}

func TestBarrierReducesAppProgress(t *testing.T) {
	noBar := shortCfg()
	noBar.Arch = MPP
	withBar := noBar
	withBar.BarrierPeriod = 10000 // very frequent barriers

	rn, rb := mustRun(t, noBar), mustRun(t, withBar)
	if rb.BarrierReleases == 0 {
		t.Fatal("no barrier releases")
	}
	// Figure 28: frequent barriers cut application CPU occupancy.
	if rb.AppCPUUtilPct >= rn.AppCPUUtilPct {
		t.Fatalf("barriers did not reduce app CPU: %v vs %v",
			rb.AppCPUUtilPct, rn.AppCPUUtilPct)
	}
}

func TestWorkConservationAcrossOwners(t *testing.T) {
	cfg := shortCfg()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	// Per-node utilizations cannot exceed 100%.
	total := res.AppCPUUtilPct + res.PdCPUUtilPct + res.PvmCPUUtilPct + res.OtherCPUUtilPct
	if total > 100.001 {
		t.Fatalf("node CPU over-committed: %v%%", total)
	}
	for _, cpu := range m.NodeCPUs {
		if cpu.BusyTotal() > cfg.Duration+1 {
			t.Fatal("single-core node busier than elapsed time")
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := shortCfg()
	a, b := mustRun(t, cfg), mustRun(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different results:\n%+v\n%+v", a, b)
	}
	cfg2 := cfg
	cfg2.Seed = 999
	c := mustRun(t, cfg2)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave identical results")
	}
}

func TestRunReplicationsCI(t *testing.T) {
	cfg := shortCfg()
	cfg.Duration = 5e6
	rep, err := RunReplications(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 5 {
		t.Fatalf("%d results", len(rep.Results))
	}
	ci := rep.CI(MetricPdCPUTime, 0.90)
	if ci.Mean <= 0 || ci.HalfWidth <= 0 {
		t.Fatalf("CI %+v", ci)
	}
	if math.Abs(rep.Mean(MetricPdCPUTime)-ci.Mean) > 1e-12 {
		t.Fatal("mean mismatch")
	}
	// Single replication: zero half-width, no error.
	rep1, err := RunReplications(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ci := rep1.CI(MetricLatency, 0.9); ci.HalfWidth != 0 {
		t.Fatal("single-rep CI should have zero half-width")
	}
	if _, err := RunReplications(Config{}, 2); err == nil {
		t.Fatal("invalid config should error")
	}
}

func TestMultipleDaemonsSMPShareLoad(t *testing.T) {
	cfg := shortCfg()
	cfg.Arch = SMP
	cfg.Nodes = 8
	cfg.AppProcs = 8
	cfg.Pds = 4
	cfg.SamplingPeriod = 5000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	active := 0
	for _, d := range m.Daemons {
		if d.SamplesCollected > 0 {
			active++
		}
	}
	if active != 4 {
		t.Fatalf("%d of 4 daemons active", active)
	}
}

func TestMainOnNodeZeroWhenNotDedicated(t *testing.T) {
	cfg := shortCfg()
	cfg.DedicatedHost = false
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.HostCPU != m.NodeCPUs[0] {
		t.Fatal("main should share node 0's CPU")
	}
	res := m.Run()
	if res.MainCPUTimeSec <= 0 {
		t.Fatal("main did no work")
	}
}

// The main process is one server: however long its backlog, it holds at
// most one of the SMP pool's CPUs, so its CPU time cannot exceed the
// measured duration. SMP, 50 CPUs and 50 processes
// under CF at 1 ms saturate it.
func TestMainHoldsAtMostOneCPU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Arch = SMP
	cfg.Nodes = 50
	cfg.AppProcs = 50
	cfg.SamplingPeriod = 1000
	cfg.Duration = 2e6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.MainCPUTimeSec > res.DurationSec {
		t.Fatalf("main used %.3f s of CPU in %.3f s", res.MainCPUTimeSec, res.DurationSec)
	}
	if res.MainCPUTimeSec < 0.9*res.DurationSec || res.MainInboxFinal == 0 {
		t.Fatalf("main not saturated: %.3f s of CPU in %.3f s, %d messages waiting",
			res.MainCPUTimeSec, res.DurationSec, res.MainInboxFinal)
	}
	if res.MainInboxFinal != m.Main.Inbox || res.MainInboxPeak < res.MainInboxFinal {
		t.Fatalf("inbox peak %d, final %d; main holds %d", res.MainInboxPeak, res.MainInboxFinal, m.Main.Inbox)
	}
}

func TestWarmupDiscardsTransient(t *testing.T) {
	cfg := shortCfg()
	cfg.Duration = 4e6
	cfg.Warmup = 2e6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if m.Sim.Now() != 6e6 {
		t.Fatalf("clock %v, want 6e6 (warmup + duration)", m.Sim.Now())
	}
	// Metrics cover only the measured window: ~4 nodes x 4s/40ms samples.
	want := 4 * int(4e6/40000)
	if res.SamplesGenerated < want-8 || res.SamplesGenerated > want+4 {
		t.Fatalf("generated %d, want ~%d (warmup not discarded?)", res.SamplesGenerated, want)
	}
	// Occupancy denominators stay consistent: app util must be plausible,
	// not inflated by warmup-time busy credit.
	if res.AppCPUUtilPct > 100 {
		t.Fatalf("app util %v%% exceeds 100%%", res.AppCPUUtilPct)
	}
	// Warmup must not change steady-state estimates much vs a plain run.
	plain := cfg
	plain.Warmup = 0
	rp := mustRun(t, plain)
	if res.PdCPUUtilPct < rp.PdCPUUtilPct/2 || res.PdCPUUtilPct > rp.PdCPUUtilPct*2 {
		t.Fatalf("warmup distorted Pd util: %v vs %v", res.PdCPUUtilPct, rp.PdCPUUtilPct)
	}
	// Negative warmup is rejected.
	bad := cfg
	bad.Warmup = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative warmup should fail validation")
	}
}

func TestNoBackgroundOption(t *testing.T) {
	cfg := shortCfg()
	cfg.Background = false
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if len(m.Sources) != 0 || res.PvmCPUUtilPct != 0 || res.OtherCPUUtilPct != 0 {
		t.Fatal("background load present despite Background=false")
	}
}

// Every Workload field is a distribution some process samples, so
// prepared must reach each one; and the model's Cfg must keep the plain
// distributions, which scenario.SpecOf type-switches on.
func TestPreparedDistsStayOutOfCfg(t *testing.T) {
	var w Workload
	v := reflect.ValueOf(&w).Elem()
	ln := rng.Dist(rng.Lognormal{MeanVal: 1, SD: 1})
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).Set(reflect.ValueOf(&ln).Elem())
	}
	p := reflect.ValueOf(w.prepared())
	for i := 0; i < p.NumField(); i++ {
		if _, plain := p.Field(i).Interface().(rng.Lognormal); plain {
			t.Errorf("Workload.prepared skips %s", p.Type().Field(i).Name)
		}
	}

	cfg := shortCfg()
	cfg.PhasePeriod = 1e6
	cfg.PhaseWorkload = &Workload{AppCPU: rng.Lognormal{MeanVal: 100, SD: 50}, AppNet: rng.Exponential{MeanVal: 10}}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, plain := m.Cfg.Workload.AppCPU.(rng.Lognormal); !plain {
		t.Fatalf("Cfg.Workload.AppCPU is %T, want rng.Lognormal", m.Cfg.Workload.AppCPU)
	}
	if _, plain := m.Cfg.PhaseWorkload.AppCPU.(rng.Lognormal); !plain {
		t.Fatalf("Cfg.PhaseWorkload.AppCPU is %T, want rng.Lognormal", m.Cfg.PhaseWorkload.AppCPU)
	}
	if _, plain := m.Apps[0].CPUDist.(rng.Lognormal); plain {
		t.Fatal("application processes sample an unprepared lognormal")
	}
	m.Run()
	if m.PhaseFlips == 0 {
		t.Fatal("no phase flip happened")
	}
	if _, plain := m.Apps[0].CPUDist.(rng.Lognormal); plain {
		t.Fatal("a phase flip installed an unprepared lognormal")
	}
}
