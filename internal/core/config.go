// Package core assembles and runs the ROCC (Resource OCCupancy) model of
// the Paradyn instrumentation system — the paper's primary contribution.
// A Config selects the architecture (NOW, SMP, or MPP), the instrumentation
// workload factors of the 2^k·r experiments (number of nodes, sampling
// period, forwarding strategy, application type, forwarding
// configuration), and the Table 2 workload parameterization. Model.Run
// executes the discrete-event simulation and reports the paper's metrics:
// direct IS overhead, monitoring latency, data-forwarding throughput, and
// per-class CPU and network utilizations.
package core

import (
	"errors"
	"fmt"
	"math"

	"rocc/internal/des"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/rng"
)

// Arch selects the system architecture being modeled.
type Arch int

const (
	// NOW is a network of workstations: one CPU per node, shared network.
	NOW Arch = iota
	// SMP is a shared-memory multiprocessor: all processes share one pool
	// of CPUs and a bus.
	SMP
	// MPP is a massively parallel processor: one CPU per node and a
	// high-speed, contention-free interconnect (§4.4).
	MPP
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case NOW:
		return "NOW"
	case SMP:
		return "SMP"
	case MPP:
		return "MPP"
	}
	return fmt.Sprintf("Arch(%d)", int(a))
}

// Contention selects the network service discipline.
type Contention int

const (
	// ContentionAuto uses the architecture default: a contended bus for
	// SMP, contention-free otherwise (the figure-18/19 and §4.4 settings).
	ContentionAuto Contention = iota
	// ContentionOn forces a single contended channel.
	ContentionOn
	// ContentionOff forces contention-free transfers.
	ContentionOff
)

// Workload holds the stochastic workload parameterization of the ROCC
// model (Table 2); all times are microseconds.
type Workload struct {
	AppCPU rng.Dist // application Computation burst
	AppNet rng.Dist // application Communication burst

	PvmCPU          rng.Dist
	PvmNet          rng.Dist
	PvmInterarrival rng.Dist

	OtherCPU             rng.Dist
	OtherNet             rng.Dist
	OtherCPUInterarrival rng.Dist
	OtherNetInterarrival rng.Dist

	MainCPU rng.Dist // main Paradyn process per-message demand
}

// DefaultWorkload returns the Table 2 parameterization fitted from AIX
// traces of the NAS pvmbt benchmark on an IBM SP-2.
func DefaultWorkload() Workload {
	return Workload{
		AppCPU:               rng.Lognormal{MeanVal: 2213, SD: 3034},
		AppNet:               rng.Exponential{MeanVal: 223},
		PvmCPU:               rng.Lognormal{MeanVal: 294, SD: 206},
		PvmNet:               rng.Exponential{MeanVal: 58},
		PvmInterarrival:      rng.Exponential{MeanVal: 6485},
		OtherCPU:             rng.Lognormal{MeanVal: 367, SD: 819},
		OtherNet:             rng.Exponential{MeanVal: 92},
		OtherCPUInterarrival: rng.Exponential{MeanVal: 31485},
		OtherNetInterarrival: rng.Exponential{MeanVal: 5598903},
		MainCPU:              rng.Lognormal{MeanVal: 3208, SD: 3287},
	}
}

// AppType is the application-type factor of the 2^k experiments (§4.2.1):
// it sets the application's network occupancy requirement.
type AppType int

const (
	// ComputeIntensive sets the application network occupancy to 200 us.
	ComputeIntensive AppType = iota
	// CommIntensive sets it to 2000 us.
	CommIntensive
)

// String implements fmt.Stringer.
func (a AppType) String() string {
	if a == CommIntensive {
		return "communication-intensive"
	}
	return "compute-intensive"
}

// Apply returns a copy of w with the application network demand set per
// the application type.
func (a AppType) Apply(w Workload) Workload {
	switch a {
	case ComputeIntensive:
		w.AppNet = rng.Exponential{MeanVal: 200}
	case CommIntensive:
		w.AppNet = rng.Exponential{MeanVal: 2000}
	}
	return w
}

// Config describes one simulation scenario.
type Config struct {
	Arch Arch

	// Nodes is the number of system nodes; for SMP it is the number of
	// CPUs in the shared-memory machine.
	Nodes int

	// AppProcs is the number of application processes per node for
	// NOW/MPP, and the total number of application processes for SMP.
	AppProcs int

	// Pds is the number of Paradyn daemons: per node for NOW/MPP
	// (typically 1), total for SMP (the §4.3 multiple-daemon factor).
	Pds int

	// SamplingPeriod is the instrumentation sampling interval in
	// microseconds; zero runs the uninstrumented baseline.
	SamplingPeriod float64

	// Strategy selects the forwarding policy: forward.NewCF,
	// forward.NewFixedBF, forward.NewAdaptiveBF, or a custom
	// implementation. Nil means CF. The value is a prototype: each daemon
	// receives its own Clone, so stateful controllers never share state
	// across daemons.
	Strategy forward.Strategy

	// Forwarding selects direct or binary-tree forwarding (MPP).
	Forwarding forward.Config

	// Network selects the interconnect contention discipline.
	Network Contention

	// PipeCapacity is the per-pipe sample buffer size (default 256).
	PipeCapacity int

	// Faults, when non-nil and active, overlays a deterministic fault
	// schedule (message loss/duplication/delay, transient daemon crashes,
	// pipe capacity squeezes) and the configured resilience policies on
	// the model. A nil or inactive plan leaves the model completely
	// unwired and reproduces the fault-free baseline bit-identically.
	Faults *faults.Plan

	// Quantum is the CPU scheduling quantum in microseconds (Table 2:
	// 10,000).
	Quantum float64

	// Duration is the simulated run length in microseconds (measured
	// portion, excluding warmup).
	Duration float64

	// Warmup, when positive, simulates this many microseconds before
	// metric collection starts, discarding the initial transient
	// (standard steady-state methodology, Law & Kelton §9).
	Warmup float64

	// BarrierPeriod, when positive, makes application processes
	// synchronize at a global barrier every BarrierPeriod microseconds of
	// completed work (the Figure 28 factor).
	BarrierPeriod float64

	// FlushTimeout, when positive, lets BF forward partial batches after
	// this many microseconds (zero = pure count-based batching).
	FlushTimeout float64

	// PhasePeriod, when positive, alternates the application workload
	// between Workload and PhaseWorkload every PhasePeriod microseconds —
	// a phased application whose behavior changes over time, the target
	// of the W3 search's "when" axis.
	PhasePeriod   float64
	PhaseWorkload *Workload

	// EventTrace switches the instrumentation from periodic sampling to
	// event tracing: one sample per application Communication event (the
	// "occurrence of an event of interest" path of the Figure 6 model).
	// SamplingPeriod may still be set to combine both.
	EventTrace bool

	// Detailed enables the full Figure 6 process-behavior model on top of
	// the simplified two-state model: probabilistic I/O blocking and
	// periodic process forking.
	Detailed DetailedModel

	// DedicatedHost places the main Paradyn process on its own host
	// workstation CPU (Figure 1); otherwise it shares node 0's CPU (for
	// SMP it always shares the CPU pool).
	DedicatedHost bool

	// Background enables the PVM daemon and other user/system processes.
	Background bool

	// Calendar selects the future-event-list implementation. The zero
	// value (CalendarAuto) picks heap or calendar-queue from the expected
	// pending-event population; all kinds produce byte-identical results
	// (proven by the calendar equivalence tests), so this is purely a
	// performance knob.
	Calendar des.CalendarKind

	Seed     uint64
	Workload Workload
	Cost     forward.CostModel
}

// DetailedModel parameterizes the Figure 6 extensions to the process
// model. The zero value disables them (the paper's simplified model).
type DetailedModel struct {
	// IOProb is the per-iteration probability of entering the Blocked
	// (I/O wait) state.
	IOProb float64
	// IOBlock is the blocked-duration distribution; defaults to
	// exponential(5000) when IOProb > 0 and IOBlock is nil.
	IOBlock rng.Dist
	// SpawnPeriod, when positive, forks a new application process every
	// SpawnPeriod microseconds of completed work per process.
	SpawnPeriod float64
	// MaxProcsPerNode caps node population growth from forking
	// (default 8).
	MaxProcsPerNode int
}

// DefaultConfig returns the "typical" configuration of Table 2: 8 nodes,
// 1 application process and 1 daemon per node, 40 ms sampling, CF policy,
// direct forwarding, 100-second run.
func DefaultConfig() Config {
	return Config{
		Arch:           NOW,
		Nodes:          8,
		AppProcs:       1,
		Pds:            1,
		SamplingPeriod: 40000,
		Strategy:       forward.NewCF(),
		Forwarding:     forward.Direct,
		PipeCapacity:   256,
		Quantum:        10000,
		Duration:       100e6,
		DedicatedHost:  true,
		Background:     true,
		Seed:           1,
		Workload:       DefaultWorkload(),
		Cost:           forward.DefaultCostModel(),
	}
}

// Validate checks the configuration and applies defaults for zero-valued
// optional fields, returning the normalized configuration.
func (c Config) Validate() (Config, error) {
	for _, f := range []struct {
		name string
		v    float64
		// nonneg marks a field whose zero means "default" or "off": a
		// negative value would otherwise run silently as that zero.
		nonneg bool
	}{
		{"SamplingPeriod", c.SamplingPeriod, true}, {"Quantum", c.Quantum, true},
		{"Duration", c.Duration, false}, {"Warmup", c.Warmup, true},
		{"BarrierPeriod", c.BarrierPeriod, true}, {"FlushTimeout", c.FlushTimeout, true},
		{"PhasePeriod", c.PhasePeriod, true},
		{"PipeCapacity", float64(c.PipeCapacity), true}, {"Pds", float64(c.Pds), true},
		{"Detailed.IOProb", c.Detailed.IOProb, false},
		{"Detailed.SpawnPeriod", c.Detailed.SpawnPeriod, true},
	} {
		// NaN slips through every ordered comparison below, and an
		// infinite Duration would never end.
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return c, fmt.Errorf("core: %s must be finite, got %v", f.name, f.v)
		}
		if f.nonneg && f.v < 0 {
			return c, fmt.Errorf("core: %s must be >= 0, got %v", f.name, f.v)
		}
	}
	if c.Nodes < 1 {
		return c, errors.New("core: Nodes must be >= 1")
	}
	if c.AppProcs < 1 {
		return c, errors.New("core: AppProcs must be >= 1")
	}
	if c.Pds == 0 {
		c.Pds = 1
	}
	if c.Arch == SMP && c.Pds > c.AppProcs {
		return c, errors.New("core: SMP daemons exceed application processes")
	}
	if c.Duration <= 0 {
		return c, errors.New("core: Duration must be positive")
	}
	if c.PipeCapacity == 0 {
		c.PipeCapacity = 256
	}
	if c.Faults != nil {
		// Validated even when inactive: a NaN rate reads as "off" to
		// Active, and must be an error, not a silently fault-free run.
		plan, err := c.Faults.Validate()
		if err != nil {
			return c, err
		}
		c.Faults = &plan
	}
	if c.Quantum == 0 {
		c.Quantum = 10000
	}
	if c.Strategy == nil {
		c.Strategy = forward.NewCF()
	}
	if v, ok := c.Strategy.(forward.Validator); ok {
		if err := v.Validate(); err != nil {
			return c, err
		}
	}
	if c.Workload == (Workload{}) {
		c.Workload = DefaultWorkload()
	}
	if c.Cost == (forward.CostModel{}) {
		c.Cost = forward.DefaultCostModel()
	}
	if c.Forwarding == forward.Tree && c.Arch != MPP {
		return c, errors.New("core: tree forwarding is modeled for MPP only")
	}
	if c.Detailed.IOProb < 0 || c.Detailed.IOProb > 1 {
		return c, errors.New("core: Detailed.IOProb must be in [0,1]")
	}
	if c.Detailed.IOProb > 0 && c.Detailed.IOBlock == nil {
		c.Detailed.IOBlock = rng.Exponential{MeanVal: 5000}
	}
	if c.Detailed.SpawnPeriod > 0 && c.Detailed.MaxProcsPerNode <= 0 {
		c.Detailed.MaxProcsPerNode = 8
	}
	if c.PhasePeriod > 0 && c.PhaseWorkload == nil {
		return c, errors.New("core: PhasePeriod needs a PhaseWorkload")
	}
	dists := c.Workload.dists("Workload.")
	if c.PhaseWorkload != nil {
		dists = append(dists, c.PhaseWorkload.dists("PhaseWorkload.")...)
	}
	dists = append(dists,
		namedDist{"Detailed.IOBlock", c.Detailed.IOBlock, false})
	if c.Faults != nil {
		dists = append(dists,
			namedDist{"Faults.Delay", c.Faults.Delay, false},
			namedDist{"Faults.CrashDowntime", c.Faults.CrashDowntime, false},
			namedDist{"Faults.SqueezeDuration", c.Faults.SqueezeDuration, false})
	}
	for _, d := range dists {
		if err := d.check(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// namedDist is one distribution of a Config, named for error messages.
// An interarrival must have a positive mean: at mean 0 its source would
// schedule arrivals forever without advancing simulated time.
type namedDist struct {
	name         string
	d            rng.Dist
	interarrival bool
}

// dists lists w's distributions, each name prefixed.
func (w Workload) dists(prefix string) []namedDist {
	return []namedDist{
		{prefix + "AppCPU", w.AppCPU, false}, {prefix + "AppNet", w.AppNet, false},
		{prefix + "PvmCPU", w.PvmCPU, false}, {prefix + "PvmNet", w.PvmNet, false},
		{prefix + "PvmInterarrival", w.PvmInterarrival, true},
		{prefix + "OtherCPU", w.OtherCPU, false}, {prefix + "OtherNet", w.OtherNet, false},
		{prefix + "OtherCPUInterarrival", w.OtherCPUInterarrival, true},
		{prefix + "OtherNetInterarrival", w.OtherNetInterarrival, true},
		{prefix + "MainCPU", w.MainCPU, false},
	}
}

// check rejects a distribution whose samples the model cannot use: every
// distribution is a demand or a time between arrivals, so its mean must be
// finite and non-negative (positive for an interarrival), a lognormal's SD
// finite and non-negative, and a uniform's range must not reach below 0.
// A nil distribution is left to the caller's defaults.
func (n namedDist) check() error {
	if n.d == nil {
		return nil
	}
	m := n.d.Mean()
	switch {
	case math.IsNaN(m) || math.IsInf(m, 0) || m < 0:
		return fmt.Errorf("core: %s mean must be finite and >= 0, got %v", n.name, m)
	case n.interarrival && m == 0:
		return fmt.Errorf("core: %s mean must be > 0", n.name)
	}
	switch d := n.d.(type) {
	case rng.Lognormal:
		if math.IsNaN(d.SD) || math.IsInf(d.SD, 0) || d.SD < 0 {
			return fmt.Errorf("core: %s SD must be finite and >= 0, got %v", n.name, d.SD)
		}
	case rng.UniformDist:
		if d.Low < 0 {
			return fmt.Errorf("core: %s uniform low must be >= 0, got %v", n.name, d.Low)
		}
	}
	return nil
}

// expectedPending estimates the steady-state future-event-list population
// for des.NewCalendarFor's auto-selection: every application process keeps
// one or two timers in flight (a burst completion plus a sampling or
// barrier tick), each daemon a flush timer, each background source an
// arrival timer, plus slack for in-flight network transfers and fault
// machinery. An estimate is all that's needed — the calendar choice only
// moves performance, never results.
func (c Config) expectedPending() int {
	apps := c.AppProcs
	if c.Arch != SMP {
		apps *= c.Nodes
	}
	pds := c.Pds
	if c.Arch != SMP {
		pds *= c.Nodes
	}
	n := 2*apps + pds + 8
	if c.Background {
		n += 2 * c.Nodes // PVM daemon + other-process sources per node
	}
	return n
}

// contended resolves the network discipline for the architecture.
func (c Config) contended() bool {
	switch c.Network {
	case ContentionOn:
		return true
	case ContentionOff:
		return false
	}
	return c.Arch == SMP
}
