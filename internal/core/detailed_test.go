package core

import (
	"testing"

	"rocc/internal/rng"
)

func TestEventTracingGeneratesPerIteration(t *testing.T) {
	cfg := shortCfg()
	cfg.Nodes = 1
	cfg.SamplingPeriod = 0 // tracing only
	cfg.EventTrace = true
	cfg.Duration = 5e6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	// One sample per iteration: far more data than 25/s sampling.
	if res.SamplesGenerated < m.Apps[0].Iterations {
		t.Fatalf("generated %d < iterations %d", res.SamplesGenerated, m.Apps[0].Iterations)
	}
	if res.SamplesGenerated < 1000 {
		t.Fatalf("tracing produced only %d samples", res.SamplesGenerated)
	}
	if res.SamplesReceived == 0 {
		t.Fatal("no traced samples delivered")
	}
}

func TestTracingCostsMoreThanSampling(t *testing.T) {
	// The reason Paradyn samples rather than traces (§1: trace-based
	// tools' "space and time overheads"): event tracing multiplies the
	// daemon's direct overhead.
	sampled := shortCfg()
	sampled.Nodes = 2
	sampled.Duration = 5e6

	traced := sampled
	traced.SamplingPeriod = 0
	traced.EventTrace = true

	rs, rt := mustRun(t, sampled), mustRun(t, traced)
	if rt.PdCPUTimePerNodeSec < 5*rs.PdCPUTimePerNodeSec {
		t.Fatalf("tracing overhead %v not well above sampling %v",
			rt.PdCPUTimePerNodeSec, rs.PdCPUTimePerNodeSec)
	}
}

func TestDetailedIOBlocking(t *testing.T) {
	cfg := shortCfg()
	cfg.Nodes = 1
	cfg.Duration = 10e6
	cfg.Detailed.IOProb = 0.3
	cfg.Detailed.IOBlock = rng.Constant{Value: 3000}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	app := m.Apps[0]
	if app.IOBlocks == 0 {
		t.Fatal("no I/O blocks occurred")
	}
	// Roughly 30% of iterations block.
	frac := float64(app.IOBlocks) / float64(app.Iterations)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("I/O block fraction %v, want ~0.3", frac)
	}
	// Blocking lowers application CPU utilization vs the simplified model.
	plain := cfg
	plain.Detailed = DetailedModel{}
	rp := mustRun(t, plain)
	if res.AppCPUUtilPct >= rp.AppCPUUtilPct {
		t.Fatalf("I/O waits should cut app CPU: %v vs %v", res.AppCPUUtilPct, rp.AppCPUUtilPct)
	}
}

func TestDetailedSpawning(t *testing.T) {
	cfg := shortCfg()
	cfg.Nodes = 2
	cfg.Duration = 20e6
	cfg.Detailed.SpawnPeriod = 3e6 // fork every 3 s of work
	cfg.Detailed.MaxProcsPerNode = 4
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if len(m.Apps) <= 2 {
		t.Fatal("no processes were spawned")
	}
	if len(m.Apps) > 2*4 {
		t.Fatalf("spawn cap violated: %d processes", len(m.Apps))
	}
	spawned := 0
	for _, a := range m.Apps[:2] {
		spawned += a.Spawned
	}
	if spawned == 0 {
		t.Fatal("parents recorded no forks")
	}
	// Spawned processes are instrumented: sample volume grows beyond the
	// initial population's rate.
	perProcess := int(cfg.Duration / cfg.SamplingPeriod)
	if res.SamplesGenerated <= 2*perProcess {
		t.Fatalf("children not sampling: %d samples", res.SamplesGenerated)
	}
	// All samples still flow to main.
	if res.SamplesReceived < res.SamplesGenerated*8/10 {
		t.Fatalf("lost samples: %d of %d", res.SamplesReceived, res.SamplesGenerated)
	}
}

func TestPhasedWorkloadAlternates(t *testing.T) {
	cfg := shortCfg()
	cfg.Nodes = 1
	cfg.Duration = 8e6
	cfg.PhasePeriod = 2e6
	// Alternate phase: communication-heavy (long network bursts).
	alt := CommIntensive.Apply(DefaultWorkload())
	alt.AppNet = rng.Exponential{MeanVal: 8000}
	cfg.PhaseWorkload = &alt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if m.PhaseFlips != 4 { // flips at 2, 4, 6, and at the 8 s horizon
		t.Fatalf("phase flips %d, want 4", m.PhaseFlips)
	}
	// The comm phase halves app CPU utilization vs an unphased run.
	plain := cfg
	plain.PhasePeriod = 0
	plain.PhaseWorkload = nil
	rp := mustRun(t, plain)
	if res.AppCPUUtilPct >= rp.AppCPUUtilPct-3 {
		t.Fatalf("phasing had no effect: %v vs %v", res.AppCPUUtilPct, rp.AppCPUUtilPct)
	}
}

func TestPhasedValidate(t *testing.T) {
	cfg := shortCfg()
	cfg.PhasePeriod = 1e6
	if _, err := New(cfg); err == nil {
		t.Fatal("PhasePeriod without PhaseWorkload should fail")
	}
	cfg.PhasePeriod = -1
	if _, err := New(cfg); err == nil {
		t.Fatal("negative PhasePeriod should fail")
	}
}

func TestDetailedValidate(t *testing.T) {
	cfg := shortCfg()
	cfg.Detailed.IOProb = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("bad IOProb should fail")
	}
	cfg = shortCfg()
	cfg.Detailed.IOProb = 0.1
	v, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Detailed.IOBlock == nil {
		t.Fatal("IOBlock default not applied")
	}
	cfg = shortCfg()
	cfg.Detailed.SpawnPeriod = 1e6
	v, err = cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Detailed.MaxProcsPerNode != 8 {
		t.Fatal("MaxProcsPerNode default not applied")
	}
}
