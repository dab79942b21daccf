package core

import (
	"reflect"
	"testing"

	"rocc/internal/des"
	"rocc/internal/forward"
)

// An invalid adaptive controller configuration surfaces from Validate,
// before any run starts.
func TestValidateRejectsInvalidController(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 1e5
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{MinBatch: 9, MaxBatch: 3})
	if _, err := cfg.Validate(); err == nil {
		t.Fatal("invalid controller config passed Validate")
	}
}

// adaptiveOverloadConfig is a node-saturating operating point: dense
// sampling from several processes per node forces the controller off its
// seed target.
func adaptiveOverloadConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.AppProcs = 16 // per node: each daemon serves 16 heavily CPU-bound procs
	cfg.SamplingPeriod = 1000
	cfg.Duration = 2e6
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	return cfg
}

// The adaptive controller is a deterministic function of the simulated
// clock: identical Results — including the controller telemetry — under
// every calendar-queue implementation and at any replication worker
// count.
func TestAdaptiveDeterministicAcrossCalendarsAndWorkers(t *testing.T) {
	base := adaptiveOverloadConfig()

	var ref Result
	for i, kind := range []des.CalendarKind{des.CalendarHeap, des.CalendarBucket} {
		cfg := base
		cfg.Calendar = kind
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := m.Run()
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Fatalf("calendar %v diverged from %v:\n%+v\n%+v",
				kind, des.CalendarHeap, ref, res)
		}
	}

	serial, err := RunReplicationsParallel(base, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := RunReplicationsParallel(base, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Results, pooled.Results) {
		t.Fatal("adaptive replications differ between worker counts")
	}
}

// Under sustained overload the controller surges off its seed (17 on the
// Table 2 costs) and reports its telemetry through the Result.
func TestAdaptiveSurgesUnderOverload(t *testing.T) {
	m, err := New(adaptiveOverloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.AdaptiveFinalBatchMean <= 17 {
		t.Fatalf("overload did not raise the batch target: final mean %v",
			res.AdaptiveFinalBatchMean)
	}
	if res.AdaptiveAdjustments == 0 {
		t.Fatal("overload recorded no control decisions")
	}
	if res.AdaptiveFinalBatchMax > 128 {
		t.Fatalf("target exceeded MaxBatch: %d", res.AdaptiveFinalBatchMax)
	}
	// A calm scenario, by contrast, rests at the seed with no adjustments.
	calm := DefaultConfig()
	calm.Duration = 2e6
	calm.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	mc, err := New(calm)
	if err != nil {
		t.Fatal(err)
	}
	rc := mc.Run()
	if rc.AdaptiveFinalBatchMean != 17 || rc.AdaptiveAdjustments != 0 {
		t.Fatalf("calm run moved off the seed: mean %v, %d adjustments",
			rc.AdaptiveFinalBatchMean, rc.AdaptiveAdjustments)
	}
}

// adaptiveTargets snapshots every daemon controller's current batch
// target and total adjustment count.
func adaptiveTargets(t *testing.T, m *Model) (targets []int, adjustments int) {
	t.Helper()
	for _, d := range m.Daemons {
		s, ok := d.Strategy.(*forward.AdaptiveBFStrategy)
		if !ok {
			t.Fatalf("daemon strategy is %T, want *forward.AdaptiveBFStrategy", d.Strategy)
		}
		targets = append(targets, s.Target())
		adjustments += len(s.Adjustments())
	}
	return targets, adjustments
}

// Convergence under a bursty sampling-period schedule: calm traffic rests
// at the seed, a dense burst surges the target up, and the return to the
// calm period decays it back to the seed — where it stays, with no
// further control activity (no oscillation). The schedule is applied by
// mutating the application processes' sampling period between simulation
// segments, which they re-read at every tick.
func TestAdaptiveConvergesUnderBurstySchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.AppProcs = 16 // per node: each daemon serves 16 pipes
	cfg.SamplingPeriod = 40000
	cfg.Strategy = forward.NewAdaptiveBF(forward.ControllerConfig{})
	cfg.Duration = 1 // segments are driven manually below
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()

	setSP := func(us float64) {
		for _, a := range m.Apps {
			a.SamplingPeriod = us
		}
	}

	// Calm phase: the controller must rest at the cost-model seed.
	m.Sim.Run(2e6)
	targets, adj := adaptiveTargets(t, m)
	for _, tgt := range targets {
		if tgt != 17 {
			t.Fatalf("calm phase target %d, want seed 17 (targets %v)", tgt, targets)
		}
	}
	if adj != 0 {
		t.Fatalf("calm phase recorded %d adjustments", adj)
	}

	// Burst: dense sampling from every process saturates the node CPUs.
	setSP(1000)
	m.Sim.Run(10e6)
	targets, _ = adaptiveTargets(t, m)
	surged := 0
	for _, tgt := range targets {
		if tgt > 17 {
			surged++
		}
	}
	if surged == 0 {
		t.Fatalf("burst did not raise any target: %v", targets)
	}

	// Back to the calm period: targets decay to the seed. The segment is
	// long because decay is deliberately slow — it is counted in forwarded
	// messages (3 halvings x CalmWindows x Window = 192 messages at ~9
	// messages/s per daemon), after the burst backlog drains and the
	// latency EWMA settles back to the floor.
	setSP(40000)
	m.Sim.Run(115e6)
	targets, adjAfterDecay := adaptiveTargets(t, m)
	for _, tgt := range targets {
		if tgt != 17 {
			t.Fatalf("post-burst target %d did not return to seed (targets %v)", tgt, targets)
		}
	}
	// ...and hold there: continued calm traffic produces no further
	// control decisions.
	m.Sim.Run(155e6)
	targets, adjFinal := adaptiveTargets(t, m)
	if adjFinal != adjAfterDecay {
		t.Fatalf("steady state oscillated: %d new adjustments", adjFinal-adjAfterDecay)
	}
	for _, tgt := range targets {
		if tgt != 17 {
			t.Fatalf("steady-state target %d, want 17", tgt)
		}
	}
}

// Fixed-strategy runs must not report adaptive telemetry, keeping their
// JSON output free of the adaptive fields.
func TestLegacyRunsOmitAdaptiveTelemetry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 0.5e6
	cfg.Strategy = forward.NewFixedBF(16)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res.AdaptiveFinalBatchMean != 0 || res.AdaptiveFinalBatchMin != 0 ||
		res.AdaptiveFinalBatchMax != 0 || res.AdaptiveAdjustments != 0 {
		t.Fatalf("fixed-BF run reports adaptive telemetry: %+v", res)
	}
}
