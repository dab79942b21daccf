// Package rocc is the public API of the ROCC (Resource OCCupancy) library,
// a reproduction of "Modeling, Evaluation, and Testing of Paradyn
// Instrumentation System" (Waheed, Rover, Hollingsworth — SC 1996).
//
// It models the data-collection services (the instrumentation system, IS)
// of the Paradyn parallel performance tool: application processes,
// Paradyn daemons that collect samples through bounded pipes and forward
// them under the collect-and-forward (CF) or batch-and-forward (BF)
// policy, and the main Paradyn process — competing for CPUs and the
// interconnect of a NOW, SMP, or MPP system.
//
// Three evaluation routes are exposed:
//
//   - Simulate / SimulateReplications: discrete-event simulation of the
//     ROCC model (Section 4 of the paper).
//   - Analytic: closed-form operational analysis, equations (1)-(16)
//     (Section 3).
//   - Measure: a real mini-IS — instrumented NAS-like kernels forwarding
//     samples over loopback TCP (Section 5).
//
// The experiment harness regenerating every table and figure of the paper
// is available through Experiments / ExperimentByID and the roccbench
// command.
package rocc

import (
	"context"
	"io"

	"rocc/internal/adaptive"
	"rocc/internal/analytic"
	"rocc/internal/consultant"
	"rocc/internal/core"
	"rocc/internal/dist"
	"rocc/internal/experiments"
	"rocc/internal/forward"
	"rocc/internal/par"
	"rocc/internal/scenario"
	"rocc/internal/testbed"
	"rocc/internal/trace"
	"rocc/internal/workload"
	"rocc/internal/xval"
)

// Simulation model configuration and results (see internal/core for the
// field documentation).
type (
	// Config describes one ROCC simulation scenario.
	Config = core.Config
	// Result holds the metrics of one simulation run.
	Result = core.Result
	// Replicated holds results from repeated replications with CIs.
	Replicated = core.Replicated
	// Metric extracts one scalar from a Result.
	Metric = core.Metric
	// Workload is the stochastic workload parameterization (Table 2).
	Workload = core.Workload
	// Arch selects NOW, SMP, or MPP.
	Arch = core.Arch
	// AppType selects compute- vs communication-intensive applications.
	AppType = core.AppType
	// Model is an assembled simulation (exposed for inspection).
	Model = core.Model
	// ObsOptions selects the observability layers EnableObservability
	// attaches to a Model.
	ObsOptions = core.ObsOptions
)

// Architectures.
const (
	NOW = core.NOW
	SMP = core.SMP
	MPP = core.MPP
)

// Application types (the §4.2.1 factor).
const (
	ComputeIntensive = core.ComputeIntensive
	CommIntensive    = core.CommIntensive
)

// Forwarding is the forwarding configuration: Direct or Tree.
type Forwarding = forward.Config

// Forwarding-configuration values.
const (
	Direct = forward.Direct
	Tree   = forward.Tree
)

// Pluggable forwarding strategies: the one value that names a forwarding
// policy, in Config.Strategy and MeasureConfig.Strategy. A Strategy decides, at every daemon decision
// point, whether to forward a batch or keep accumulating, and receives
// completion feedback per forwarded batch (see internal/forward for the
// contract).
type (
	// ForwardStrategy schedules a daemon's forwarding decisions.
	ForwardStrategy = forward.Strategy
	// ForwardFeedback is the completion report fed back per batch.
	ForwardFeedback = forward.Feedback
	// AdaptiveBFConfig parameterizes the adaptive batch-size controller.
	AdaptiveBFConfig = forward.ControllerConfig
	// AdaptiveBF is the feedback-controlled batch-and-forward strategy.
	AdaptiveBF = forward.AdaptiveBFStrategy
)

// NewCFStrategy returns the collect-and-forward strategy (one message per
// sample).
func NewCFStrategy() ForwardStrategy { return forward.NewCF() }

// NewFixedBFStrategy returns batch-and-forward at a fixed batch size.
func NewFixedBFStrategy(batch int) ForwardStrategy { return forward.NewFixedBF(batch) }

// NewAdaptiveBFStrategy returns the adaptive batch-size controller; the
// zero AdaptiveBFConfig selects the scenario-free defaults.
func NewAdaptiveBFStrategy(cfg AdaptiveBFConfig) *AdaptiveBF { return forward.NewAdaptiveBF(cfg) }

// ParseForwarding parses a forwarding configuration ("direct", "tree").
func ParseForwarding(s string) (Forwarding, error) { return forward.ParseConfig(s) }

// ParseForwardStrategy parses a -policy spec ("cf", "bf", "bf:<n>",
// "abf", "abf:<ms>") into its strategy, with descriptive errors. A bare
// "bf" takes defaultBatch, and is an error when defaultBatch < 1.
func ParseForwardStrategy(spec string, defaultBatch int) (ForwardStrategy, error) {
	return forward.ParseStrategy(spec, defaultBatch)
}

// DefaultConfig returns the paper's "typical" configuration: NOW, 8 nodes,
// one application process and daemon per node, 40 ms sampling, CF policy,
// 100 simulated seconds.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultWorkload returns the Table 2 workload parameterization.
func DefaultWorkload() Workload { return core.DefaultWorkload() }

// NewModel assembles (but does not run) a simulation model.
func NewModel(cfg Config) (*Model, error) { return core.New(cfg) }

// Simulate runs one replication of the ROCC model.
func Simulate(cfg Config) (Result, error) { return core.Simulate(cfg) }

// SimulateReplications runs reps independent replications (the paper uses
// r=50 with 90% confidence intervals; see Replicated.CI). Replications fan
// out across one worker per core by default — each model is share-nothing
// and seeds are pre-derived, so results are identical to the serial path
// for a fixed cfg.Seed; see SetParallelism.
func SimulateReplications(cfg Config, reps int) (Replicated, error) {
	return core.RunReplications(cfg, reps)
}

// SimulateReplicationsParallel is SimulateReplications with an explicit
// worker-pool size: 1 forces the serial path, 0 uses the default.
func SimulateReplicationsParallel(cfg Config, reps, workers int) (Replicated, error) {
	return core.RunReplicationsParallel(cfg, reps, workers)
}

// SetParallelism sets the default worker-pool size used by replication and
// sweep fan-out throughout the library; n <= 0 restores the one-worker-
// per-core default. Determinism is unaffected: any pool size produces the
// same results for a fixed seed.
func SetParallelism(n int) { par.SetWorkers(n) }

// Operational analysis (Section 3).
type (
	// AnalyticParams parameterizes equations (1)-(16).
	AnalyticParams = analytic.Params
	// AnalyticMetrics holds the closed-form outputs.
	AnalyticMetrics = analytic.Metrics
)

// DefaultAnalyticParams returns the Table 2 analytic parameterization.
func DefaultAnalyticParams() AnalyticParams { return analytic.DefaultParams() }

// Measurement testbed (Section 5, the Figure 29 setup over real sockets).
type (
	// MeasureConfig describes one real measurement run on one or more
	// nodes.
	MeasureConfig = testbed.Config
	// MeasureResult is its outcome, per node and over all nodes.
	MeasureResult = testbed.Result
)

// Measure runs the real mini instrumentation system: on each node an
// instrumented kernel ("bt" or "is") and a forwarding daemon, all sending
// to one TCP collector, directly or through a binary tree of relays.
func Measure(cfg MeasureConfig) (MeasureResult, error) { return testbed.Run(cfg) }

// Adaptive IS self-regulation (the Section 6 extension).
type (
	// RegulatorConfig parameterizes the overhead feedback controller.
	RegulatorConfig = adaptive.Config
	// RegulationResult records a closed-loop regulation run.
	RegulationResult = adaptive.RegulationResult
)

// Regulate runs the ROCC simulation in closed loop with a feedback
// controller that adjusts the sampling period to hold the direct IS
// overhead at a user-specified budget (the paper's §6 direction and
// Paradyn's dynamic cost model).
func Regulate(simCfg Config, ctrl RegulatorConfig, intervalUS float64, intervals int) (RegulationResult, error) {
	return adaptive.Regulate(simCfg, ctrl, intervalUS, intervals)
}

// Performance Consultant: the W3 bottleneck search the IS feeds.
type (
	// ConsultantConfig parameterizes the search (thresholds, window).
	ConsultantConfig = consultant.Config
	// SearchResult holds the confirmed bottleneck hypotheses.
	SearchResult = consultant.SearchResult
	// Finding is one confirmed hypothesis.
	Finding = consultant.Finding
	// Why is the bottleneck-hypothesis axis (CPU/communication/sync bound).
	Why = consultant.Why
)

// Bottleneck hypothesis kinds.
const (
	CPUBound  = consultant.CPUBound
	CommBound = consultant.CommBound
	SyncBound = consultant.SyncBound
)

// SearchBottlenecks runs the miniature Performance Consultant over a live
// simulation of the configured system, confirming and refining bottleneck
// hypotheses from the periodically collected instrumentation data.
func SearchBottlenecks(simCfg Config, cCfg ConsultantConfig, intervalUS float64, intervals int) (SearchResult, error) {
	return consultant.Search(simCfg, cCfg, intervalUS, intervals)
}

// Experiment harness: regenerate the paper's tables and figures.
type (
	// Experiment is one table/figure generator.
	Experiment = experiments.Experiment
	// ExperimentOptions scales the experiments.
	ExperimentOptions = experiments.Options
)

// Workload characterization (§2.3): traces and the fitting pipeline.
type (
	// TraceRecord is one resource-occupancy interval of an AIX-like trace.
	TraceRecord = trace.Record
	// TraceGenConfig parameterizes synthetic trace generation.
	TraceGenConfig = trace.GenConfig
	// Characterization is the output of the §2.3 pipeline: Table 1
	// statistics, Figure 8 fits, and Table 2 parameters.
	Characterization = workload.Characterization
)

// GenerateTrace produces a synthetic AIX-like occupancy trace.
func GenerateTrace(cfg TraceGenConfig) ([]TraceRecord, error) { return trace.Generate(cfg) }

// CharacterizeTrace runs the workload-characterization pipeline over a
// trace; Characterization.Workload() yields the Table 2 parameters ready
// for Simulate.
func CharacterizeTrace(recs []TraceRecord) (*Characterization, error) {
	return workload.Characterize(recs)
}

// Scenario files: declarative JSON experiment specifications.
type (
	// Scenario is the JSON form of a simulation configuration.
	Scenario = scenario.Spec
	// ScenarioCell is one operating point of a scenario grid.
	ScenarioCell = scenario.Cell
	// ScenarioGrid is an ordered set of scenario operating points.
	ScenarioGrid = scenario.Grid
)

// PaperGrid returns the paper's NOW evaluation operating points (the
// Table 4 factorial plus the instrumented points of Figures 17-19) in
// deterministic order.
func PaperGrid() ScenarioGrid { return scenario.PaperGrid() }

// FullGrid extends PaperGrid with the SMP and MPP factorial designs.
func FullGrid() ScenarioGrid { return scenario.FullGrid() }

// Cross-validation: the analytic model against the simulation over a
// scenario grid (see internal/xval).
type (
	// Estimates is the output schema both models map onto.
	Estimates = xval.Estimates
	// CrossValidationOptions scales a cross-validation run.
	CrossValidationOptions = xval.Options
	// CrossValidationReport is the resulting error surface.
	CrossValidationReport = xval.Report
)

// DefaultCrossValidationOptions returns the default dashboard scaling.
func DefaultCrossValidationOptions() CrossValidationOptions { return xval.DefaultOptions() }

// CrossValidate evaluates the analytic model and the replicated
// simulation on every grid cell and assembles the error surface:
// per-metric relative error of the analytic value against the simulated
// one, CI coverage, and worst-case divergence per architecture/policy
// cell. Output is deterministic for a fixed Options.Seed at any
// Options.Workers setting.
func CrossValidate(g ScenarioGrid, opt CrossValidationOptions) (*CrossValidationReport, error) {
	return xval.Run(g, opt)
}

// Distributed sweeps: the fault-tolerant fan-out engine behind roccsweep
// (see internal/dist and DESIGN.md).
type (
	// SweepJob is one distributable simulation unit: a scenario plus its
	// pre-derived model seed.
	SweepJob = dist.Job
	// SweepRunner is one worker slot (subprocess, ssh host, or in-process).
	SweepRunner = dist.Runner
	// SweepDistOptions tunes sharding, retry/backoff, deadlines,
	// checkpointing, and the local fallback.
	SweepDistOptions = dist.Options
	// SweepGridOptions selects a grid-level distributed sweep.
	SweepGridOptions = dist.SweepOptions
	// SweepGridReport is the merged per-cell output of a grid sweep.
	SweepGridReport = dist.SweepReport
)

// LocalSweepWorkers returns n worker slots that re-execute the current
// binary with -worker (the binary must dispatch that flag to
// ServeSweepWorker, as roccsweep does).
func LocalSweepWorkers(n int) []SweepRunner { return dist.LocalRunners(n) }

// SSHSweepWorker returns a worker slot on an ssh-reachable host running
// `roccsweep -worker` (or command, if non-empty).
func SSHSweepWorker(host, command string) SweepRunner {
	return dist.SSHRunner{Host: host, Command: command}
}

// SweepDistributed fans jobs across the given workers with retry,
// speculative re-dispatch, checkpointing, and graceful degradation to
// local execution, returning one Result per job in job order. Seeds are
// pre-derived, so output is byte-identical to the local path at any
// worker topology and under worker faults. With no runners configured
// the jobs run on this host.
func SweepDistributed(jobs []SweepJob, opt SweepDistOptions) ([]Result, error) {
	return dist.Run(context.Background(), jobs, opt)
}

// SweepGrid runs a whole scenario grid (by name: "smoke", "paper",
// "full", "table4", "table5", "table6") through the distributed engine
// and folds the results into per-cell replication blocks.
func SweepGrid(opt SweepGridOptions) (SweepGridReport, error) {
	return dist.Sweep(context.Background(), opt)
}

// ServeSweepWorker runs the worker side of the sweep protocol on r/w
// (normally os.Stdin/os.Stdout) until the driver disconnects.
func ServeSweepWorker(r io.Reader, w io.Writer) error { return dist.ServeWorker(r, w) }

// LoadScenario reads a JSON scenario.
func LoadScenario(r io.Reader) (Scenario, error) { return scenario.Load(r) }

// SaveScenario writes a JSON scenario.
func SaveScenario(w io.Writer, s Scenario) error { return scenario.Save(w, s) }

// ScenarioOf converts a configuration into its JSON form.
func ScenarioOf(cfg Config) Scenario { return scenario.FromConfig(cfg) }

// Experiments returns every registered table/figure generator.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID looks up one experiment (e.g. "fig17", "table4").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// DefaultExperimentOptions returns the fast default experiment scaling.
func DefaultExperimentOptions() ExperimentOptions { return experiments.Default() }

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(w io.Writer, opt ExperimentOptions) error {
	return experiments.RunAll(w, opt)
}
