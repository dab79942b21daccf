package forward

import (
	"errors"
	"fmt"
	"math"
)

// Action is a Strategy's verdict for one forwarding decision point.
type Action int

const (
	// Accumulate keeps buffering: the daemon waits for more samples.
	Accumulate Action = iota
	// ForwardNow drains one batch of the size returned alongside the
	// action and forwards it as a single message.
	ForwardNow
	// FlushAll drains every buffered sample into one message regardless of
	// any batch target (a latency escape hatch for custom strategies).
	FlushAll
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Accumulate:
		return "accumulate"
	case ForwardNow:
		return "forward"
	case FlushAll:
		return "flush"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Feedback is the completion report a daemon feeds back to its Strategy
// for every locally collected batch, at the simulated instant the message
// is handed to the network. All quantities derive from the simulated clock
// and the daemon's own buffers — never from wall-clock time — so feedback-
// driven strategies stay byte-reproducible and replication-parallel-safe.
type Feedback struct {
	// Now is the simulated time (microseconds) of the network handoff.
	Now float64
	// Samples is the batch size forwarded.
	Samples int
	// NewestAgeUS is the age of the newest sample in the batch: the
	// collection CPU demand plus CPU queueing — the daemon-side component
	// of the forwarding latency the main process will observe.
	NewestAgeUS float64
	// OldestAgeUS is the age of the oldest sample; it additionally
	// includes the batch accumulation wait.
	OldestAgeUS float64
	// Buffered is the number of samples still readable after the drain —
	// the pipe-occupancy signal of the daemon's local backlog.
	Buffered int
	// Capacity is the daemon's total buffering (pipe capacities plus one
	// blocked writer per pipe).
	Capacity int
}

// Occupancy returns Buffered/Capacity in [0,1].
func (f Feedback) Occupancy() float64 {
	if f.Capacity <= 0 {
		return 0
	}
	return float64(f.Buffered) / float64(f.Capacity)
}

// Strategy is a pluggable forwarding-scheduling policy: it decides, each
// time a daemon is free to work and samples are buffered, whether to
// forward now, keep accumulating, or flush everything, and it receives
// completion feedback for every batch it forwarded. The built-ins are
// NewCF (collect-and-forward), NewFixedBF (batch-and-forward at a fixed
// batch size — the two policies of the paper's Figure 3), and
// NewAdaptiveBF (feedback-controlled batch size, the ROADMAP extension).
//
// Contract: Decide is called on the simulated clock with the number of
// readable samples and the daemon's total buffering; returning ForwardNow
// with a batch larger than either is safe (the daemon clamps), but a
// strategy that never returns a reachable batch stalls forwarding until
// the flush timeout (if any) fires. Strategies must be deterministic
// functions of their inputs and internal state: no wall-clock reads, no
// unseeded randomness, or byte-reproducibility across replications and
// worker counts is lost.
type Strategy interface {
	// Decide picks the action for the current decision point. The int is
	// the batch size to drain when the action is ForwardNow.
	Decide(now float64, buffered, capacity int) (Action, int)
	// Observe receives completion feedback for one forwarded batch.
	Observe(fb Feedback)
	// Clone returns the per-daemon instance wired into each daemon:
	// stateless strategies may return themselves, stateful ones must
	// return a fresh controller so daemons never share mutable state.
	Clone() Strategy
	// String renders the strategy in -policy spec form ("cf", "bf:32",
	// "abf", "abf:1.5").
	String() string
}

// CostSeeder is implemented by strategies that seed their internal model
// from the daemon's forwarding cost model; the daemon calls it once at
// Start, before any Decide.
type CostSeeder interface {
	SeedFromCost(CostModel)
}

// Validator is implemented by strategies whose configuration can be
// invalid; core.Config.Validate surfaces the error before a run starts.
type Validator interface {
	Validate() error
}

// cfStrategy forwards every sample as soon as it is collected.
type cfStrategy struct{}

// NewCF returns the collect-and-forward strategy: one message per sample,
// the policy of the pre-release Paradyn IS.
func NewCF() Strategy { return cfStrategy{} }

func (cfStrategy) Decide(now float64, buffered, capacity int) (Action, int) {
	return ForwardNow, 1
}
func (cfStrategy) Observe(Feedback) {}
func (cfStrategy) Clone() Strategy  { return cfStrategy{} }
func (cfStrategy) String() string   { return "cf" }

// fixedBFStrategy accumulates a fixed batch before forwarding.
type fixedBFStrategy struct{ batch int }

// NewFixedBF returns the batch-and-forward strategy at a fixed batch
// size (>= 1), the policy added to Paradyn release 1.0. The target is
// clamped to the daemon's total buffering, so an oversized batch cannot
// deadlock.
func NewFixedBF(batch int) Strategy {
	if batch < 1 {
		batch = 1
	}
	return fixedBFStrategy{batch: batch}
}

func (s fixedBFStrategy) Decide(now float64, buffered, capacity int) (Action, int) {
	thr := s.batch
	if thr > capacity && capacity > 0 {
		thr = capacity
	}
	if buffered >= thr {
		return ForwardNow, thr
	}
	return Accumulate, 0
}
func (s fixedBFStrategy) Observe(Feedback) {}
func (s fixedBFStrategy) Clone() Strategy  { return s }
func (s fixedBFStrategy) String() string   { return fmt.Sprintf("bf:%d", s.batch) }

// PolicyOf reads the (policy, batch) pair off a strategy, for labels:
// nil and NewCF are (CF, 1), NewFixedBF(n) is (BF, n). Any other strategy
// (adaptive BF or a custom one) is (BF, 0): batch-and-forward with no
// fixed batch.
func PolicyOf(s Strategy) (Policy, int) {
	switch v := s.(type) {
	case nil, cfStrategy:
		return CF, 1
	case fixedBFStrategy:
		return BF, v.batch
	}
	return BF, 0
}

// ControllerConfig parameterizes the adaptive BF batch-size controller.
// The zero value selects the defaults, which are deliberately scenario-
// free: the controller seeds itself from the daemon's cost model and
// corrects from feedback, with no per-scenario tuning.
type ControllerConfig struct {
	// TargetLatencyUS is the per-message forwarding budget (microseconds)
	// the seed batch is solved from: the largest batch whose expected
	// collection-plus-transmission service time stays within the budget.
	// 0 derives the budget from the cost model as LatencyFactor times the
	// CF service baseline (mean per-message CPU + network demand).
	TargetLatencyUS float64
	// LatencyFactor scales the auto-derived budget (default 1.5: allow
	// 50% over the CF service floor, which buys an order of magnitude in
	// per-sample CPU amortization on the Table 2 cost model).
	LatencyFactor float64
	// MinBatch and MaxBatch bound the target (defaults 1 and 128, the
	// Figure 19 sweep range).
	MinBatch, MaxBatch int
	// Window is the control interval in forwarded messages (default 16).
	Window int
	// OccHigh is the buffer-occupancy fraction above which the target
	// doubles to drain backlog with better amortization (default 0.35).
	OccHigh float64
	// Surge is the ratio of the EWMA latency to its observed floor that
	// signals overload and doubles the target (default 3): when the
	// daemon-side delay grows to several times the best this scenario has
	// shown, the node is saturating and fewer, larger messages shed
	// per-message overhead. Latency alone only surges when occupancy is
	// at least OccHigh/2 — delay without backlog is application CPU
	// contention that batching cannot amortize.
	Surge float64
	// Relax is the latency-to-floor ratio the EWMA must come back under —
	// with occupancy also low — before an elevated target decays toward
	// the seed (default 1.5). The Surge/Relax gap is the hysteresis band
	// that prevents limit cycles.
	Relax float64
	// CalmWindows is how many consecutive calm control windows are
	// required before each decay step (default 4), damping boundary-load
	// flapping.
	CalmWindows int
}

// withDefaults fills zero fields.
func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.LatencyFactor == 0 {
		c.LatencyFactor = 1.5
	}
	if c.MinBatch == 0 {
		c.MinBatch = 1
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 128
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.OccHigh == 0 {
		c.OccHigh = 0.35
	}
	if c.Surge == 0 {
		c.Surge = 3
	}
	if c.Relax == 0 {
		c.Relax = 1.5
	}
	if c.CalmWindows == 0 {
		c.CalmWindows = 4
	}
	return c
}

// Validate checks the configuration.
func (c ControllerConfig) Validate() error {
	d := c.withDefaults()
	// Every comparison with NaN is false, so each float bound also
	// requires a finite value.
	switch {
	case !finite(c.TargetLatencyUS) || c.TargetLatencyUS < 0:
		return errors.New("forward: adaptive TargetLatencyUS must be finite and >= 0")
	case !finite(d.LatencyFactor) || d.LatencyFactor <= 1:
		return errors.New("forward: adaptive LatencyFactor must be finite and > 1")
	case d.MinBatch < 1 || d.MaxBatch < d.MinBatch:
		return errors.New("forward: adaptive needs 1 <= MinBatch <= MaxBatch")
	case d.Window < 1:
		return errors.New("forward: adaptive Window must be >= 1")
	case !finite(d.OccHigh) || d.OccHigh <= 0 || d.OccHigh > 1:
		return errors.New("forward: adaptive OccHigh must be in (0,1]")
	case !finite(d.Surge) || d.Surge <= 1:
		return errors.New("forward: adaptive Surge must be finite and > 1")
	case !finite(d.Relax) || d.Relax <= 1 || d.Relax >= d.Surge:
		return errors.New("forward: adaptive needs 1 < Relax < Surge")
	case d.CalmWindows < 1:
		return errors.New("forward: adaptive CalmWindows must be >= 1")
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// BatchAdjustment records one control decision of the adaptive
// controller, for inspection by tests and the ext-adaptive-bf experiment.
type BatchAdjustment struct {
	Now       float64 // simulated time of the decision (microseconds)
	LatencyUS float64 // EWMA latency estimate driving it
	Occupancy float64 // EWMA buffer occupancy driving it
	From, To  int     // batch target before and after
}

// AdaptiveBFStrategy regulates the BF batch size with a deterministic
// hysteresis law driven by the same simulated-clock signals the
// observability samplers export — pipe occupancy and per-message
// forwarding latency — so the batch-size knee of Figure 19 is tracked
// instead of tuned per scenario.
//
// The seed target is solved from the cost model: the largest batch whose
// expected service time L(n) = E[msgCPU] + E[msgNet] + (cpu+net per extra
// sample)(n-1) stays within the budget. On the Table 2 costs that lands
// near the Figure 19 knee (the per-message cost dominates per-sample cost
// by ~30x, so most of the amortization is already banked there), while the
// forwarding latency a batch actually experiences is dominated by CPU
// scheduling waits the closed form cannot see. Feedback therefore corrects
// for load, not for the model: every Window messages the controller
// compares the EWMA of the measured daemon-side delay against the lowest
// EWMA this run has shown (the scenario's own latency floor — an absolute
// budget would be mis-scaled against queueing that varies by orders of
// magnitude across scenarios). Occupancy above OccHigh — or latency above
// Surge x floor with occupancy at least OccHigh/2, so that delay without
// backlog (application CPU contention batching cannot fix) is ignored —
// means the node is saturating: the target doubles, shedding per-message
// overhead. Once occupancy is low and latency is back under
// Relax x floor for CalmWindows consecutive windows, an elevated target
// halves back toward the seed. Inside the Surge/Relax band it holds — the
// hysteresis that prevents limit cycles. All inputs are simulated-clock
// quantities, so runs are byte-reproducible at any replication-worker
// count and under any calendar-queue implementation.
type AdaptiveBFStrategy struct {
	cfg    ControllerConfig
	cost   CostModel
	seeded bool

	budgetUS float64
	seed     int // the model-derived resting target
	target   int
	ewmaLat  float64
	ewmaOcc  float64
	latFloor float64
	warm     bool
	count    int
	calm     int

	history []BatchAdjustment
}

// NewAdaptiveBF returns an adaptive batch-and-forward strategy. The
// controller state is created per daemon by Clone; the returned value is
// the prototype.
func NewAdaptiveBF(cfg ControllerConfig) *AdaptiveBFStrategy {
	s := &AdaptiveBFStrategy{cfg: cfg.withDefaults()}
	s.SeedFromCost(DefaultCostModel())
	s.seeded = false // a real cost model may still re-seed at wiring time
	return s
}

// Validate implements Validator.
func (s *AdaptiveBFStrategy) Validate() error { return s.cfg.Validate() }

// SeedFromCost implements CostSeeder: it derives the latency budget and
// the initial batch target from the forwarding cost model. It is a no-op
// once feedback has arrived (re-wiring must not reset a live controller).
func (s *AdaptiveBFStrategy) SeedFromCost(cost CostModel) {
	if s.seeded && s.count > 0 {
		return
	}
	s.cost = cost
	base := cost.PerMsgCPU.Mean() + cost.PerMsgNet.Mean()
	s.budgetUS = s.cfg.TargetLatencyUS
	if s.budgetUS <= 0 {
		s.budgetUS = s.cfg.LatencyFactor * base
	}
	perExtra := cost.PerSampleCPU + cost.PerSampleNet
	n := s.cfg.MinBatch
	if perExtra > 0 && s.budgetUS > base {
		n = 1 + int((s.budgetUS-base)/perExtra)
	} else if s.budgetUS > base {
		n = s.cfg.MaxBatch
	}
	s.seed = clampInt(n, s.cfg.MinBatch, s.cfg.MaxBatch)
	s.target = s.seed
	s.seeded = true
}

// Decide implements Strategy.
func (s *AdaptiveBFStrategy) Decide(now float64, buffered, capacity int) (Action, int) {
	thr := s.target
	if thr > capacity && capacity > 0 {
		thr = capacity
	}
	if buffered >= thr {
		return ForwardNow, thr
	}
	return Accumulate, 0
}

// Observe implements Strategy: it folds one batch's completion feedback
// into the EWMAs and, at window boundaries, runs the control law.
func (s *AdaptiveBFStrategy) Observe(fb Feedback) {
	// Latency estimate: the measured daemon-side delay plus the expected
	// per-message network transmission. The network term uses the
	// distribution mean — a deterministic quantity — because the actual
	// transmission is sampled after the decision point. The deterministic
	// per-extra-sample marshaling cost is subtracted out: it grows
	// linearly with the batch, so leaving it in would bias the comparison
	// of an elevated target against a floor recorded at a smaller one and
	// pin the controller high after a surge. What remains — CPU queueing
	// wait plus the per-message service terms — is comparable across
	// batch sizes.
	lat := fb.NewestAgeUS - s.cost.PerSampleCPU*float64(fb.Samples-1) + s.cost.PerMsgNet.Mean()
	if lat < 0 {
		lat = 0
	}
	occ := fb.Occupancy()
	alpha := 2.0 / (float64(s.cfg.Window) + 1)
	if !s.warm {
		s.ewmaLat, s.ewmaOcc, s.warm = lat, occ, true
	} else {
		s.ewmaLat += alpha * (lat - s.ewmaLat)
		s.ewmaOcc += alpha * (occ - s.ewmaOcc)
	}
	s.count++
	if s.count%s.cfg.Window != 0 {
		return
	}
	// The floor is the lowest fully-warmed EWMA seen this run: the
	// scenario's own best-case daemon-side delay.
	if s.count >= s.cfg.Window && (s.latFloor == 0 || s.ewmaLat < s.latFloor) {
		s.latFloor = s.ewmaLat
	}
	from := s.target
	// The latency-surge condition is gated on at least moderate occupancy:
	// a larger batch sheds the daemon's own per-message overhead, which
	// only helps when samples are actually backing up. Latency spiking
	// over Surge x floor with near-empty buffers is contention from the
	// application processes' own CPU bursts — batching cannot amortize
	// that, and reacting to it would make heavy-tailed workloads oscillate.
	surging := s.ewmaOcc > s.cfg.OccHigh ||
		(s.ewmaOcc >= s.cfg.OccHigh/2 && s.latFloor > 0 && s.ewmaLat > s.cfg.Surge*s.latFloor)
	calm := s.ewmaOcc < s.cfg.OccHigh/2 &&
		(s.latFloor == 0 || s.ewmaLat < s.cfg.Relax*s.latFloor)
	switch {
	case surging:
		// Saturating: fewer, larger messages shed per-message overhead.
		s.calm = 0
		s.target = clampInt(s.target*2, s.cfg.MinBatch, s.cfg.MaxBatch)
	case calm && s.target > s.seed:
		// Load has receded: decay the elevated target toward the seed,
		// one halving per CalmWindows consecutive calm windows.
		s.calm++
		if s.calm < s.cfg.CalmWindows {
			return
		}
		s.calm = 0
		next := s.target / 2
		if next < s.seed {
			next = s.seed
		}
		s.target = clampInt(next, s.cfg.MinBatch, s.cfg.MaxBatch)
	default:
		s.calm = 0
		return // inside the hysteresis band, or already at the seed: hold
	}
	if s.target != from {
		s.history = append(s.history, BatchAdjustment{
			Now: fb.Now, LatencyUS: s.ewmaLat, Occupancy: s.ewmaOcc,
			From: from, To: s.target,
		})
	}
}

// Clone implements Strategy: each daemon gets an independent controller.
func (s *AdaptiveBFStrategy) Clone() Strategy {
	return &AdaptiveBFStrategy{cfg: s.cfg, cost: s.cost, seeded: s.seeded,
		budgetUS: s.budgetUS, seed: s.seed, target: s.target}
}

// String implements Strategy in -policy spec form: "abf" for the
// auto-derived budget, "abf:<ms>" for an explicit one.
func (s *AdaptiveBFStrategy) String() string {
	if s.cfg.TargetLatencyUS > 0 {
		return fmt.Sprintf("abf:%g", s.cfg.TargetLatencyUS/1000)
	}
	return "abf"
}

// Target returns the batch target currently in force.
func (s *AdaptiveBFStrategy) Target() int { return s.target }

// BudgetUS returns the latency budget in force (microseconds).
func (s *AdaptiveBFStrategy) BudgetUS() float64 { return s.budgetUS }

// Adjustments returns the control-decision history.
func (s *AdaptiveBFStrategy) Adjustments() []BatchAdjustment { return s.history }

// EWMALatencyUS returns the smoothed batch-size-comparable latency
// estimate (microseconds) currently driving the control law.
func (s *AdaptiveBFStrategy) EWMALatencyUS() float64 { return s.ewmaLat }

// EWMAOccupancy returns the smoothed post-drain buffer occupancy in
// [0,1] currently driving the control law.
func (s *AdaptiveBFStrategy) EWMAOccupancy() float64 { return s.ewmaOcc }

// FloorUS returns the lowest window-boundary latency EWMA seen this run
// (microseconds) — the scenario's own best-case daemon-side delay the
// surge and relax thresholds are relative to. Zero until the first full
// control window.
func (s *AdaptiveBFStrategy) FloorUS() float64 { return s.latFloor }

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
