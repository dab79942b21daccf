package core

import (
	"math"
	"testing"

	"rocc/internal/analytic"
	"rocc/internal/forward"
)

// At light load the simulation must agree with the Section 3 operational
// analysis — the cross-check that validated the model before the "what-if"
// studies (Table 3 spirit, automated).
func TestSimulationMatchesAnalyticLightLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Duration = 50e6
	cfg.Background = false // isolate the IS workload the equations model

	p := analytic.DefaultParams()
	p.Nodes = 4

	for _, spMS := range []float64{20, 40, 64} {
		cfg.SamplingPeriod = spMS * 1000
		p.SamplingPeriod = spMS * 1000
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		want := p.NOW()

		// Daemon CPU utilization: eq (2) vs measured, within 10%.
		got := res.PdCPUUtilPct / 100
		if rel := math.Abs(got-want.PdCPUUtil) / want.PdCPUUtil; rel > 0.10 {
			t.Errorf("SP=%vms: sim Pd util %v vs analytic %v (%.0f%% off)",
				spMS, got, want.PdCPUUtil, rel*100)
		}
		// Main-process utilization: eq (5), within 10%.
		gotMain := res.MainCPUUtilPct / 100
		if rel := math.Abs(gotMain-want.ParadynCPUUtil) / want.ParadynCPUUtil; rel > 0.10 {
			t.Errorf("SP=%vms: sim main util %v vs analytic %v", spMS, gotMain, want.ParadynCPUUtil)
		}
	}
}

// Equation (1) in the flesh: daemon message rate scales as
// appProcs / (samplingPeriod * batchSize).
func TestMessageRateFollowsEquationOne(t *testing.T) {
	base := DefaultConfig()
	base.Nodes = 1
	base.Duration = 40e6
	base.Background = false

	run := func(procs, batch int, spUS float64) float64 {
		cfg := base
		cfg.AppProcs = procs
		cfg.SamplingPeriod = spUS
		if batch > 1 {
			cfg.Strategy = forward.NewFixedBF(batch)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		return float64(res.MessagesForwarded) / res.DurationSec
	}

	ref := run(1, 1, 40000) // 25 messages/s
	if math.Abs(ref-25) > 1.5 {
		t.Fatalf("reference rate %v, want ~25/s", ref)
	}
	if got := run(2, 1, 40000); math.Abs(got-2*ref) > 3 {
		t.Errorf("2 procs: %v msgs/s, want ~%v", got, 2*ref)
	}
	if got := run(1, 1, 20000); math.Abs(got-2*ref) > 3 {
		t.Errorf("half period: %v msgs/s, want ~%v", got, 2*ref)
	}
	if got := run(4, 4, 40000); math.Abs(got-ref) > 3 {
		t.Errorf("4 procs / batch 4: %v msgs/s, want ~%v", got, ref)
	}
}

// Sample conservation: in a quiesced CF run every generated sample is
// accounted for — received at main, buffered in a pipe, or in flight.
func TestSampleConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.AppProcs = 2
	cfg.SamplingPeriod = 7000
	cfg.Duration = 10e6
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	m.Sim.Run(cfg.Duration)
	// Quiesce: let in-flight work finish (no new samples generated after
	// we stop the sampling timers by draining remaining events only up to
	// a grace horizon).
	m.Sim.Run(cfg.Duration + 1e6)

	generated := 0
	for _, a := range m.Apps {
		generated += a.Generated
	}
	buffered := 0
	for _, d := range m.Daemons {
		for _, p := range d.Pipes {
			buffered += p.Len() + p.Blocked()
		}
	}
	received := m.Main.SamplesReceived
	// Grace period generates a few more samples; received+buffered can
	// trail generated only by messages still in flight at the horizon,
	// bounded by nodes (one outstanding message per daemon) plus one
	// sampling tick per process.
	slack := cfg.Nodes*cfg.AppProcs + cfg.Nodes
	if received+buffered < generated-slack || received+buffered > generated {
		t.Fatalf("conservation: generated %d, received %d, buffered %d",
			generated, received, buffered)
	}
}
