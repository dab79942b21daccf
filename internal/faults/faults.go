// Package faults is the deterministic fault-injection and resilience
// layer of the ROCC model. The paper's §4.3.3 analysis shows the
// instrumentation system degrading sharply under overload, but models a
// fault-free world; this package makes failure a first-class model input
// so experiments can ask how much monitoring data each forwarding policy
// preserves when the system itself misbehaves.
//
// A Plan is a reproducible fault schedule: message loss, duplication, and
// delay on daemon uplinks, transient daemon crash/restart windows, and
// pipe capacity squeezes. Every fault decision is drawn from a per-entity
// substream derived from the plan's own seed, independent of the model's
// workload streams — enabling or scaling one fault class never perturbs
// the application workload, and a fixed (model seed, fault seed) pair
// replays bit-identically.
//
// The Resilience policies respond to injected faults: per-uplink
// ack/timeout/retransmission with exponential backoff and a retry budget
// (Link), receiver-side duplicate suppression, and an adaptive
// degradation controller (Degrader) that engages sample thinning when
// pipe occupancy or the retry queue crosses a watermark.
package faults

import (
	"errors"
	"fmt"
	"math"

	"rocc/internal/des"
	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// Plan describes a reproducible fault schedule plus the resilience
// policies that respond to it. The zero value is inert: a model built
// with a zero plan is byte-identical to the fault-free baseline.
type Plan struct {
	// Seed drives every fault decision through substreams derived from
	// it; it is independent of the model's Config.Seed.
	Seed uint64

	// Message-transit faults applied on every daemon uplink (daemon to
	// parent daemon or to the main process), per delivery attempt.
	Loss      float64  // P(message vanishes in transit)
	Dup       float64  // P(message is delivered twice)
	DelayProb float64  // P(message suffers an extra transit delay)
	Delay     rng.Dist // extra delay length (default exponential 5000 us)
	AckLoss   float64  // P(an acknowledgement vanishes) — retransmission mode

	// Transient daemon crashes: each daemon alternates exponential
	// up-times (mean CrashMTBF) with CrashDowntime-distributed outages.
	CrashMTBF     float64  // mean up-time between crashes (us); 0 = none
	CrashDowntime rng.Dist // outage length (default exponential 50000 us)

	// Pipe capacity squeezes: transient kernel buffer pressure windows
	// during which a pipe's effective capacity drops to SqueezeCapFrac of
	// its nominal size.
	SqueezeMTBF     float64  // mean time between windows per pipe; 0 = none
	SqueezeDuration rng.Dist // window length (default exponential 100000 us)
	SqueezeCapFrac  float64  // capacity fraction in a window (default 0.25)

	Resilience Resilience
}

// Resilience selects the mechanisms that respond to injected faults.
type Resilience struct {
	// Retransmit enables ack/timeout/retransmission with receiver-side
	// duplicate suppression on every daemon uplink.
	Retransmit  bool
	RTO         float64 // initial retransmission timeout (default 20000 us)
	Backoff     float64 // RTO multiplier per retry (default 2)
	RetryBudget int     // retransmissions per message before giving up (default 6)
	AckDelay    float64 // ack transit time (default 100 us)

	// Degrade enables the adaptive degradation controller: a periodic
	// loop per daemon that doubles sample thinning while pipe occupancy
	// or the uplink retry queue is above its watermark, and backs off
	// when pressure clears.
	Degrade        bool
	DegradePeriod  float64 // control-loop period (default 50000 us)
	PipeWatermark  float64 // pipe occupancy fraction that engages thinning (default 0.75)
	RetryWatermark int     // unacked uplink messages that engage thinning (default 8)
	MaxThinning    int     // cap on the keep-1-in-n thinning factor (default 8)
}

// Active reports whether the plan injects any fault or enables any
// resilience mechanism. An inactive plan (nil or zero) leaves the model
// completely unwired.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	return p.Loss > 0 || p.Dup > 0 || p.DelayProb > 0 || p.AckLoss > 0 ||
		p.CrashMTBF > 0 || p.SqueezeMTBF > 0 ||
		p.Resilience.Retransmit || p.Resilience.Degrade
}

// Validate checks probabilities and applies defaults for zero-valued
// optional fields, returning the normalized plan.
func (p Plan) Validate() (Plan, error) {
	for _, prob := range []float64{p.Loss, p.Dup, p.DelayProb, p.AckLoss} {
		if !(prob >= 0 && prob <= 1) { // also rejects NaN
			return p, errors.New("faults: probabilities must be in [0,1]")
		}
	}
	r := &p.Resilience
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"CrashMTBF", p.CrashMTBF}, {"SqueezeMTBF", p.SqueezeMTBF},
		{"SqueezeCapFrac", p.SqueezeCapFrac},
		{"RTO", r.RTO}, {"Backoff", r.Backoff}, {"AckDelay", r.AckDelay},
		{"DegradePeriod", r.DegradePeriod}, {"PipeWatermark", r.PipeWatermark},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return p, fmt.Errorf("faults: %s must be finite, got %v", f.name, f.v)
		}
	}
	if p.CrashMTBF < 0 || p.SqueezeMTBF < 0 {
		return p, errors.New("faults: MTBF values must be >= 0")
	}
	if p.DelayProb > 0 && p.Delay == nil {
		p.Delay = rng.Exponential{MeanVal: 5000}
	}
	if p.CrashMTBF > 0 && p.CrashDowntime == nil {
		p.CrashDowntime = rng.Exponential{MeanVal: 50000}
	}
	if p.SqueezeMTBF > 0 {
		if p.SqueezeDuration == nil {
			p.SqueezeDuration = rng.Exponential{MeanVal: 100000}
		}
		if p.SqueezeCapFrac <= 0 || p.SqueezeCapFrac > 1 {
			p.SqueezeCapFrac = 0.25
		}
	}
	if r.Retransmit {
		if r.RTO <= 0 {
			r.RTO = 20000
		}
		if r.Backoff < 1 {
			r.Backoff = 2
		}
		if r.RetryBudget <= 0 {
			r.RetryBudget = 6
		}
		if r.AckDelay < 0 {
			return p, errors.New("faults: AckDelay must be >= 0")
		}
		if r.AckDelay == 0 {
			r.AckDelay = 100
		}
	}
	if r.Degrade {
		if r.DegradePeriod <= 0 {
			r.DegradePeriod = 50000
		}
		if r.PipeWatermark <= 0 || r.PipeWatermark > 1 {
			r.PipeWatermark = 0.75
		}
		if r.RetryWatermark <= 0 {
			r.RetryWatermark = 8
		}
		if r.MaxThinning < 2 {
			r.MaxThinning = 8
		}
	}
	return p, nil
}

// Substream identifiers for reproducible per-entity fault streams,
// mirroring the scheme of internal/core.
const (
	streamLink = iota + 1
	streamLinkCost
	streamCrash
	streamSqueeze
)

func streamID(kind, node, idx int) uint64 {
	return uint64(kind)<<40 | uint64(node)<<20 | uint64(idx)
}

// Injector owns the fault streams, schedules, and aggregate accounting
// for one model instance.
type Injector struct {
	Sim  *des.Simulator
	Plan Plan

	root      *rng.Stream
	Links     []*Link
	degraders []*Degrader

	// Crash and squeeze accounting.
	Crashes    int
	DowntimeUS float64
	Squeezes   int
}

// NewInjector validates the plan and returns an injector bound to sim.
func NewInjector(sim *des.Simulator, plan Plan) (*Injector, error) {
	plan, err := plan.Validate()
	if err != nil {
		return nil, err
	}
	return &Injector{Sim: sim, Plan: plan, root: rng.New(plan.Seed)}, nil
}

// ScheduleCrashes arms the transient crash/restart schedule for every
// daemon: exponential up-times of mean CrashMTBF alternating with
// CrashDowntime outages, each daemon on its own substream.
func (inj *Injector) ScheduleCrashes(daemons []*procs.PdDaemon) {
	if inj.Plan.CrashMTBF <= 0 {
		return
	}
	for i, d := range daemons {
		d := d
		r := inj.root.Derive(streamID(streamCrash, d.Node, i))
		inj.scheduleCrash(d, r)
	}
}

func (inj *Injector) scheduleCrash(d *procs.PdDaemon, r *rng.Stream) {
	up := r.Exp(inj.Plan.CrashMTBF)
	inj.Sim.Schedule(up, func() {
		down := inj.Plan.CrashDowntime.Sample(r)
		inj.Crashes++
		inj.DowntimeUS += down
		d.Crash()
		inj.Sim.Schedule(down, func() {
			d.Restore()
			inj.scheduleCrash(d, r)
		})
	})
}

// SchedulePipeSqueezes arms transient capacity-squeeze windows on every
// pipe, each on its own substream.
func (inj *Injector) SchedulePipeSqueezes(pipes []*resources.Pipe) {
	if inj.Plan.SqueezeMTBF <= 0 {
		return
	}
	for i, p := range pipes {
		p := p
		r := inj.root.Derive(streamID(streamSqueeze, 0, i))
		inj.scheduleSqueeze(p, r)
	}
}

func (inj *Injector) scheduleSqueeze(p *resources.Pipe, r *rng.Stream) {
	gap := r.Exp(inj.Plan.SqueezeMTBF)
	inj.Sim.Schedule(gap, func() {
		limit := int(inj.Plan.SqueezeCapFrac * float64(p.Cap()))
		if limit < 1 {
			limit = 1
		}
		inj.Squeezes++
		p.SetCapacityLimit(limit)
		dur := inj.Plan.SqueezeDuration.Sample(r)
		inj.Sim.Schedule(dur, func() {
			p.SetCapacityLimit(0)
			inj.scheduleSqueeze(p, r)
		})
	})
}

// Totals is an aggregate snapshot of fault and resilience accounting
// across the injector's links, crash schedule, and degraders.
type Totals struct {
	LossInjected, DupInjected, DelayInjected, AcksLost int

	Retransmits, GiveUps  int
	SamplesLostForwarding int
	DupMessagesDiscarded  int
	Recovered             int // messages delivered only thanks to retransmission
	RecoveryMeanUS        float64
	RecoveryMaxUS         float64

	Crashes    int
	DowntimeUS float64
	Squeezes   int

	DegradedResidencyUS float64
	DegradeEngagements  int
}

// Totals aggregates current accounting.
func (inj *Injector) Totals() Totals {
	t := Totals{Crashes: inj.Crashes, DowntimeUS: inj.DowntimeUS, Squeezes: inj.Squeezes}
	var recSum float64
	for _, l := range inj.Links {
		t.LossInjected += l.LossInjected
		t.DupInjected += l.DupInjected
		t.DelayInjected += l.DelayInjected
		t.AcksLost += l.AcksLost
		t.Retransmits += l.Retransmits
		t.GiveUps += l.GiveUps
		t.SamplesLostForwarding += l.SamplesLost
		t.DupMessagesDiscarded += l.DupDiscarded
		t.Recovered += l.recovered
		recSum += l.recoveredSum
		if l.recoveredMax > t.RecoveryMaxUS {
			t.RecoveryMaxUS = l.recoveredMax
		}
	}
	if t.Recovered > 0 {
		t.RecoveryMeanUS = recSum / float64(t.Recovered)
	}
	for _, g := range inj.degraders {
		t.DegradedResidencyUS += g.ResidencyUS
		t.DegradeEngagements += g.Engagements
	}
	return t
}

// SetObserver attaches a lifecycle observer to every uplink created so
// far; retransmission attempts are reported to it. A nil observer
// detaches.
func (inj *Injector) SetObserver(o procs.Observer) {
	for _, l := range inj.Links {
		l.obs = o
	}
}

// ResetAccounting clears fault and resilience counters without disturbing
// pending retransmissions or schedules; used for warmup removal.
func (inj *Injector) ResetAccounting() {
	inj.Crashes = 0
	inj.DowntimeUS = 0
	inj.Squeezes = 0
	for _, l := range inj.Links {
		l.ResetAccounting()
	}
	for _, g := range inj.degraders {
		g.ResidencyUS = 0
		g.Engagements = 0
	}
}
