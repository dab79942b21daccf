package forward

import (
	"math"
	"strings"
	"testing"
)

func TestCFStrategyDecide(t *testing.T) {
	s := NewCF()
	for _, buffered := range []int{1, 5, 100} {
		act, n := s.Decide(0, buffered, 65)
		if act != ForwardNow || n != 1 {
			t.Fatalf("cf Decide(buffered=%d) = %v,%d, want forward,1", buffered, act, n)
		}
	}
	if s.Clone() != s {
		t.Fatal("cf must be stateless: Clone returns itself")
	}
	if s.String() != "cf" {
		t.Fatalf("cf String = %q", s.String())
	}
}

// FixedBF reproduces the legacy batch-threshold loop exactly: the target
// clamps to the daemon's total buffering, forwards only once the clamped
// threshold is reachable, and never returns a partial batch.
func TestFixedBFStrategyDecide(t *testing.T) {
	s := NewFixedBF(16)
	if act, _ := s.Decide(0, 15, 65); act != Accumulate {
		t.Fatal("below threshold must accumulate")
	}
	if act, n := s.Decide(0, 16, 65); act != ForwardNow || n != 16 {
		t.Fatalf("at threshold = %v,%d", act, n)
	}
	if act, n := s.Decide(0, 40, 65); act != ForwardNow || n != 16 {
		t.Fatalf("above threshold must still drain one batch, got %v,%d", act, n)
	}
	// Oversized batch clamps to capacity — the legacy anti-deadlock rule.
	big := NewFixedBF(1000)
	if act, n := big.Decide(0, 5, 5); act != ForwardNow || n != 5 {
		t.Fatalf("clamped Decide = %v,%d, want forward,5", act, n)
	}
	if act, _ := big.Decide(0, 4, 5); act != Accumulate {
		t.Fatal("below clamped threshold must accumulate")
	}
	if NewFixedBF(0).String() != "bf:1" || NewFixedBF(-3).String() != "bf:1" {
		t.Fatal("batch < 1 must clamp to 1")
	}
}

func TestPolicyOf(t *testing.T) {
	cases := []struct {
		s     Strategy
		p     Policy
		batch int
	}{
		{nil, CF, 1},
		{NewCF(), CF, 1},
		{NewFixedBF(32), BF, 32},
		{NewFixedBF(0), BF, 1},
		{NewAdaptiveBF(ControllerConfig{}), BF, 0},
	}
	for _, c := range cases {
		if p, b := PolicyOf(c.s); p != c.p || b != c.batch {
			t.Errorf("PolicyOf(%v) = %v,%d, want %v,%d", c.s, p, b, c.p, c.batch)
		}
	}
}

func TestFeedbackOccupancy(t *testing.T) {
	if occ := (Feedback{Buffered: 13, Capacity: 65}).Occupancy(); occ != 13.0/65 {
		t.Fatalf("occupancy %v", occ)
	}
	if occ := (Feedback{Buffered: 5, Capacity: 0}).Occupancy(); occ != 0 {
		t.Fatalf("zero capacity occupancy %v", occ)
	}
}

func TestControllerConfigValidate(t *testing.T) {
	if err := (ControllerConfig{}).Validate(); err != nil {
		t.Fatalf("zero config (defaults) must validate: %v", err)
	}
	cases := []struct {
		name string
		cfg  ControllerConfig
		sub  string
	}{
		{"negative budget", ControllerConfig{TargetLatencyUS: -1}, "TargetLatencyUS"},
		{"factor at 1", ControllerConfig{LatencyFactor: 1}, "LatencyFactor"},
		{"min over max", ControllerConfig{MinBatch: 8, MaxBatch: 4}, "MinBatch <= MaxBatch"},
		{"negative window", ControllerConfig{Window: -1}, "Window"},
		{"occ over 1", ControllerConfig{OccHigh: 1.5}, "OccHigh"},
		{"surge at 1", ControllerConfig{Surge: 1}, "Surge"},
		{"relax >= surge", ControllerConfig{Relax: 3, Surge: 2}, "Relax < Surge"},
		{"negative calm", ControllerConfig{CalmWindows: -2}, "CalmWindows"},
		{"NaN budget", ControllerConfig{TargetLatencyUS: math.NaN()}, "TargetLatencyUS"},
		{"infinite budget", ControllerConfig{TargetLatencyUS: math.Inf(1)}, "TargetLatencyUS"},
		{"NaN factor", ControllerConfig{LatencyFactor: math.NaN()}, "LatencyFactor"},
		{"infinite factor", ControllerConfig{LatencyFactor: math.Inf(1)}, "LatencyFactor"},
		{"NaN occ", ControllerConfig{OccHigh: math.NaN()}, "OccHigh"},
		{"NaN surge", ControllerConfig{Surge: math.NaN()}, "Surge"},
		{"infinite surge", ControllerConfig{Surge: math.Inf(1)}, "Surge"},
		{"NaN relax", ControllerConfig{Relax: math.NaN()}, "Relax < Surge"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.sub) {
			t.Errorf("%s: error %q, want substring %q", c.name, err, c.sub)
		}
	}
}

// The seed batch solves the budget against the cost model: with the
// Table 2 costs (base 267+71=338 us, 10 us per extra sample) and the
// default 1.5x budget, the seed is 1 + (507-338)/10 = 17.
func TestAdaptiveSeedFromCost(t *testing.T) {
	s := NewAdaptiveBF(ControllerConfig{})
	s.SeedFromCost(DefaultCostModel())
	if s.Target() != 17 {
		t.Fatalf("default seed target %d, want 17", s.Target())
	}
	if s.BudgetUS() != 1.5*338 {
		t.Fatalf("budget %v, want 507", s.BudgetUS())
	}
	// An explicit 1 ms budget admits a larger batch.
	s2 := NewAdaptiveBF(ControllerConfig{TargetLatencyUS: 1000})
	s2.SeedFromCost(DefaultCostModel())
	if want := 67; s2.Target() != want { // 1 + floor((1000-338)/10)
		t.Fatalf("1ms-budget seed %d, want %d", s2.Target(), want)
	}
}

// feedN delivers n synthetic completion reports: the newest-sample age
// models a queueing wait plus the batch's own marshaling service (the
// Table 2 per-sample CPU term), which is what a real daemon measures.
func feedN(s *AdaptiveBFStrategy, n int, wait float64, occ float64) {
	for i := 0; i < n; i++ {
		batch := s.Target()
		s.Observe(Feedback{
			Now: float64(i), Samples: batch,
			NewestAgeUS: wait + 8*float64(batch-1),
			Buffered:    int(occ * 65), Capacity: 65,
		})
	}
}

// Step response: a calm baseline establishes the floor, a sustained
// surge doubles the target (possibly repeatedly), and a return to calm
// decays it back to the seed — where it then holds without oscillating.
func TestAdaptiveControlLawStepResponse(t *testing.T) {
	s := NewAdaptiveBF(ControllerConfig{})
	s.SeedFromCost(DefaultCostModel())
	seed := s.Target()

	// Calm baseline: 4 windows at low latency/occupancy fix the floor.
	feedN(s, 64, 500, 0.01)
	if s.Target() != seed {
		t.Fatalf("calm baseline moved the target: %d", s.Target())
	}
	if len(s.Adjustments()) != 0 {
		t.Fatalf("calm baseline recorded adjustments: %v", s.Adjustments())
	}

	// Surge: occupancy over OccHigh doubles the target each window.
	feedN(s, 32, 500, 0.9)
	if s.Target() != seed*4 {
		t.Fatalf("after 2 surge windows target %d, want %d", s.Target(), seed*4)
	}

	// A latency surge with moderate occupancy (over OccHigh/2 but under
	// OccHigh, EWMA over Surge x floor) also escalates. With near-empty
	// buffers it would not: delay without backlog is CPU contention the
	// batch size cannot amortize.
	feedN(s, 16, 50*500, 0.2)
	if s.Target() <= seed*4 {
		t.Fatalf("latency surge did not escalate: %d", s.Target())
	}
	peak := s.Target()

	// Calm again: each CalmWindows consecutive calm windows halve the
	// target until it rests at the seed.
	feedN(s, 16*4*8, 500, 0.01)
	if s.Target() != seed {
		t.Fatalf("decay did not return to seed: %d (peak %d)", s.Target(), peak)
	}

	// Holding at the seed under continued calm: no further adjustments —
	// the no-oscillation property.
	before := len(s.Adjustments())
	feedN(s, 16*16, 500, 0.01)
	if got := len(s.Adjustments()); got != before {
		t.Fatalf("steady state oscillated: %d new adjustments", got-before)
	}
	if s.Target() != seed {
		t.Fatalf("steady-state target %d, want seed %d", s.Target(), seed)
	}
}

// Inside the hysteresis band (latency between Relax and Surge x floor)
// an elevated target holds rather than flapping.
func TestAdaptiveHysteresisBandHolds(t *testing.T) {
	s := NewAdaptiveBF(ControllerConfig{})
	s.SeedFromCost(DefaultCostModel())
	feedN(s, 64, 500, 0.01) // floor ~500
	feedN(s, 16, 500, 0.9)  // one surge window: target doubles
	elevated := s.Target()
	if elevated <= 17 {
		t.Fatalf("surge did not elevate: %d", elevated)
	}
	// In-band: latency 2x floor (between Relax 1.5 and Surge 3), low occ.
	feedN(s, 16*20, 1000, 0.01)
	if s.Target() != elevated {
		t.Fatalf("in-band target moved: %d, want hold at %d", s.Target(), elevated)
	}
}

// The target respects MaxBatch under unbounded surge and MinBatch on
// decay, and a decay step never undershoots the seed.
func TestAdaptiveTargetBounds(t *testing.T) {
	s := NewAdaptiveBF(ControllerConfig{MaxBatch: 64})
	s.SeedFromCost(DefaultCostModel())
	feedN(s, 64, 500, 0.01)
	feedN(s, 16*20, 500, 0.99)
	if s.Target() != 64 {
		t.Fatalf("surge exceeded MaxBatch: %d", s.Target())
	}
	feedN(s, 16*4*20, 500, 0.01)
	if s.Target() != 17 {
		t.Fatalf("decay rested at %d, want seed 17", s.Target())
	}
}

// Clone hands each daemon an independent controller: feedback into the
// clone must not move the prototype, and vice versa.
func TestAdaptiveCloneIndependence(t *testing.T) {
	proto := NewAdaptiveBF(ControllerConfig{})
	proto.SeedFromCost(DefaultCostModel())
	clone := proto.Clone().(*AdaptiveBFStrategy)
	feedN(clone, 64, 500, 0.01)
	feedN(clone, 32, 500, 0.9)
	if clone.Target() == proto.Target() {
		t.Fatal("clone surge should not equal untouched prototype target")
	}
	if len(proto.Adjustments()) != 0 {
		t.Fatal("prototype accumulated the clone's history")
	}
	if proto.Target() != 17 {
		t.Fatalf("prototype target moved: %d", proto.Target())
	}
}

// Re-seeding is a no-op once feedback has arrived: wiring a live
// controller into a new daemon must not reset its learned state.
func TestAdaptiveReseedIsNoOpAfterFeedback(t *testing.T) {
	s := NewAdaptiveBF(ControllerConfig{})
	s.SeedFromCost(DefaultCostModel())
	feedN(s, 64, 500, 0.01)
	feedN(s, 16, 500, 0.9)
	elevated := s.Target()
	s.SeedFromCost(DefaultCostModel())
	if s.Target() != elevated {
		t.Fatalf("re-seed reset a live controller: %d, want %d", s.Target(), elevated)
	}
}

func TestActionString(t *testing.T) {
	if Accumulate.String() != "accumulate" || ForwardNow.String() != "forward" ||
		FlushAll.String() != "flush" {
		t.Fatal("action strings")
	}
	if Action(9).String() == "" {
		t.Fatal("unknown action should still render")
	}
}
