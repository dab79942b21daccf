package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"time"

	"rocc/internal/core"
	"rocc/internal/des"
	"rocc/internal/experiments"
	"rocc/internal/faults"
	"rocc/internal/obs/live"
	"rocc/internal/obs/prov"
	"rocc/internal/rng"
	"rocc/internal/scenario"
)

// Seed streams under the workload seed (core.DeriveSeed), one per use, so
// op seeds, the warm-up seed and fault-plan seeds never collide.
const (
	streamOps uint64 = iota + 1
	streamWarmup
	streamFaults
)

// The single-simulation workloads are stored as scenario JSON so set-up
// pays the same decode and validation a scenario file does. Durations are
// sized so one op takes 25-50 ms of host time on a quiet 2-vCPU x86-64
// machine, so a 20 s run holds over 100 ops even when the host runs at
// a third of that speed.
const (
	// The heaviest sample hot path: one pipe put/get, one CF decision, one
	// network transfer and one main-process receipt per sample.
	nowCFDenseJSON = `{"arch":"now","nodes":32,"app_procs":1,"sampling_period_us":1000,
"policy":"cf","forwarding":"direct","duration_us":1000000,"dedicated_host":true}`

	// Engine-dominated: ~1.3k pending events, tree merges, a saturated
	// main process. The 8-sample pipe makes the blocked-writer path run; at
	// the default 256 samples no put blocks even in a 10 s run.
	mpp256TreeJSON = `{"arch":"mpp","nodes":256,"app_procs":1,"sampling_period_us":40000,
"policy":"cf","forwarding":"tree","pipe_capacity":8,"duration_us":500000,"dedicated_host":true}`

	// Adaptive BF under a fault cocktail with the observability layer
	// attached; the fault plan is not part of the scenario schema and is
	// added in Go (chaosPlan).
	chaosObservedJSON = `{"arch":"now","nodes":16,"app_procs":1,"sampling_period_us":2000,
"policy":"abf","forwarding":"direct","duration_us":4000000,"dedicated_host":true}`
)

// chaosPlan is the fault cocktail of chaos-observed: loss, duplication,
// delay, ack loss, crashes with 200 ms outages and squeezes to a tenth of
// the pipe, with retransmission and degradation on. Long outages back
// samples up, so the adaptive controller changes its batch target in
// every op: 3 to 12 times over 20 seeds, where 100 ms outages left it
// idle on 2 of them.
func chaosPlan(seed uint64) *faults.Plan {
	return &faults.Plan{
		Seed: seed, Loss: 0.05, Dup: 0.05, DelayProb: 0.1, AckLoss: 0.05,
		CrashMTBF: 2e5, CrashDowntime: rng.Exponential{MeanVal: 200000},
		SqueezeMTBF: 2e5, SqueezeCapFrac: 0.1,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}
}

// table4 regeneration size: simulated time per run and replications.
const (
	table4DurationUS = 250000
	table4Reps       = 2
)

// opOpts varies one op for the set-up checks and the traced run.
type opOpts struct {
	calendar des.CalendarKind // forced calendar (CalendarAuto = the model's choice)
	serial   bool             // table4: Parallel=1 instead of one worker per CPU
	observed bool             // attach Metrics+Provenance even where the op is plain
	pending  *int             // when non-nil, receives the calendar's peak length
	tr       *tracer          // spans; nil when untraced
	parent   spanRef
}

// output is what one op produces, kept for its checks and the layer metrics.
type output struct {
	results  []core.Result
	events   uint64 // events dispatched (single-simulation ops)
	text     []byte // table4 report, or the OpenMetrics exposition
	families []string
	folded   uint64  // prov: samples whose stages were folded
	closeErr float64 // prov: worst per-sample stage-sum error (us)
	newD     time.Duration
	runD     time.Duration
	renderD  time.Duration
	parseD   time.Duration
}

// digest fingerprints an output's simulated results and text.
func (o output) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range o.results {
		if err := enc.Encode(r); err != nil {
			panic(err) // Result holds only plain numbers and strings
		}
	}
	h.Write(o.text)
	return hex.EncodeToString(h.Sum(nil))
}

// workload is one benchmark workload.
type workload interface {
	// decode reads the workload's scenario text and returns its decode
	// time; scale shrinks the simulated duration (smoke runs).
	decode(scale float64) (time.Duration, error)
	// opSeed is the seed of op i under the workload seed; i = -1 is the
	// warm-up op.
	opSeed(wseed uint64, i int) uint64
	op(seed uint64, o opOpts) (output, error)
	// check validates one op against the set-up reference output.
	check(out, ref output) error
	// simSec is the simulated seconds one op completes.
	simSec() float64
	// workers is how many goroutines an op keeps busy; the run sets
	// GOMAXPROCS to it.
	workers() int
	// probe is the single simulation the observability probe runs.
	probe(seed uint64) (core.Config, error)
}

var workloadNames = []string{"now-cf-dense", "mpp256-tree", "table4-regen", "chaos-observed"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "now-cf-dense":
		return &simWorkload{text: nowCFDenseJSON}, nil
	case "mpp256-tree":
		return &simWorkload{text: mpp256TreeJSON}, nil
	case "chaos-observed":
		return &simWorkload{text: chaosObservedJSON, chaos: true}, nil
	case "table4-regen":
		return &table4Workload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// decodeSpec is the scenario layer's public decode path.
func decodeSpec(text string) (core.Config, error) {
	spec, err := scenario.Load(strings.NewReader(text))
	if err != nil {
		return core.Config{}, err
	}
	return spec.Config()
}

// simWorkload runs one simulation per op.
type simWorkload struct {
	text  string
	chaos bool // fault cocktail + observability + exposition round trip
	cfg   core.Config
}

func (w *simWorkload) decode(scale float64) (time.Duration, error) {
	t0 := time.Now()
	cfg, err := decodeSpec(w.text)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	cfg.Duration *= scale
	w.cfg = cfg
	return d, nil
}

func (w *simWorkload) opSeed(wseed uint64, i int) uint64 {
	if i < 0 {
		return core.DeriveSeed(wseed, streamWarmup, 0)
	}
	return core.DeriveSeed(wseed, streamOps, uint64(i))
}

func (w *simWorkload) simSec() float64 { return w.cfg.Duration / 1e6 }

// workers is 1: one simulation per CPU, as in a sweep, so the
// collector's work shares the simulation's CPU, and the op's time does not
// hang on a second vCPU that a shared host may withhold.
func (w *simWorkload) workers() int { return 1 }

func (w *simWorkload) config(seed uint64) core.Config {
	cfg := w.cfg
	cfg.Seed = seed
	if w.chaos {
		cfg.Faults = chaosPlan(core.DeriveSeed(seed, streamFaults, 0))
	}
	return cfg
}

func (w *simWorkload) probe(seed uint64) (core.Config, error) { return w.config(seed), nil }

func (w *simWorkload) op(seed uint64, o opOpts) (output, error) {
	cfg := w.config(seed)
	cfg.Calendar = o.calendar
	o.observed = o.observed || w.chaos
	return runSim(cfg, o)
}

// runSim assembles and runs one model, attaching the observability layer
// and rendering and re-parsing its exposition when o.observed is set.
func runSim(cfg core.Config, o opOpts) (output, error) {
	var out output
	t0 := time.Now()
	sp := o.tr.start("core.new", o.parent)
	m, err := core.New(cfg)
	sp.end()
	out.newD = time.Since(t0)
	if err != nil {
		return out, err
	}
	var exp *live.Exporter
	if o.observed {
		sp := o.tr.start("obs.enable", o.parent)
		c, err := m.EnableObservability(core.ObsOptions{Metrics: true, Provenance: true})
		sp.end()
		if err != nil {
			return out, err
		}
		exp = live.NewExporter()
		exp.SetRun(c.Metrics)
		eng := m.Provenance()
		for st := prov.Stage(0); st < prov.NumStages; st++ {
			exp.AddHistogram(eng.Histogram(st), "per-sample dwell in stage "+st.String())
		}
	}
	if o.pending != nil {
		m.Sim.Obs = &pendingMax{next: m.Sim.Obs, max: o.pending}
	}
	t0 = time.Now()
	sp = o.tr.start("core.run", o.parent)
	res := m.Run()
	sp.end()
	out.runD = time.Since(t0)
	out.results = []core.Result{res}
	out.events = m.Sim.Dispatched
	if exp == nil {
		return out, nil
	}
	eng := m.Provenance()
	out.folded, out.closeErr = eng.Delivered(), eng.MaxCloseErrUS()
	var buf bytes.Buffer
	t0 = time.Now()
	sp = o.tr.start("live.render", o.parent)
	err = exp.WriteOpenMetrics(&buf)
	sp.end()
	out.renderD = time.Since(t0)
	if err != nil {
		return out, err
	}
	out.text = buf.Bytes()
	t0 = time.Now()
	sp = o.tr.start("live.parse", o.parent)
	_, out.families, err = live.ParseExpositionFamilies(bytes.NewReader(out.text))
	sp.end()
	out.parseD = time.Since(t0)
	return out, err
}

// pendingMax is a des.Observer recording the calendar's peak length; it
// forwards to the observer it displaced (the metrics collector, if any).
type pendingMax struct {
	next des.Observer
	max  *int
}

func (p *pendingMax) EventDispatched(t des.Time, pending int) {
	if pending > *p.max {
		*p.max = pending
	}
	if p.next != nil {
		p.next.EventDispatched(t, pending)
	}
}

func (w *simWorkload) check(out, _ output) error {
	if err := checkResults(out.results); err != nil {
		return err
	}
	if !w.chaos || len(out.text) == 0 {
		return nil
	}
	return checkObserved(out)
}

// checkObserved checks an observed op: the exposition carries the stage
// families, the stage shares sum to 100 once any sample was delivered, and
// every stage sum closes.
func checkObserved(out output) error {
	stages := 0
	for _, f := range out.families {
		if strings.HasPrefix(f, live.MetricPrefix+"latency_stage_") {
			stages++
		}
	}
	if stages == 0 {
		return errors.New("exposition lacks the rocc_latency_stage_ families")
	}
	var share float64
	for _, s := range out.results[0].LatencyStages {
		share += s.SharePct
	}
	if out.folded > 0 && math.Abs(share-100) > 1e-6 {
		return fmt.Errorf("stage shares sum to %v, want 100", share)
	}
	if out.closeErr > 1e-6 {
		return fmt.Errorf("stage sum misses latency by %g us", out.closeErr)
	}
	return nil
}

// checkResults applies the checks every simulated Result must pass: only
// finite numbers, and no more samples received than generated.
func checkResults(rs []core.Result) error {
	if len(rs) == 0 {
		return errors.New("no results")
	}
	for i, r := range rs {
		if err := finite(reflect.ValueOf(r), "Result"); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if r.SamplesReceived > r.SamplesGenerated+r.WarmupCarryover {
			return fmt.Errorf("run %d: %d samples received > %d generated + %d carried over",
				i, r.SamplesReceived, r.SamplesGenerated, r.WarmupCarryover)
		}
	}
	return nil
}

// finite reports the first NaN or infinite float in v.
func finite(v reflect.Value, path string) error {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%s = %v", path, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := finite(v.Field(i), path+"."+v.Type().Field(i).Name); err != nil {
				return err
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if err := finite(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// table4Workload regenerates the paper's Table 4 through the experiments
// registry: 16 NOW factorial cells × reps, fanned out by par.Map.
type table4Workload struct {
	duration float64
	cells    []string // the grid's cell specs as scenario JSON
}

func (w *table4Workload) decode(scale float64) (time.Duration, error) {
	if w.cells == nil {
		for _, c := range scenario.Table4Grid().Cells {
			var buf bytes.Buffer
			if err := scenario.Save(&buf, c.Spec); err != nil {
				return 0, err
			}
			w.cells = append(w.cells, buf.String())
		}
	}
	w.duration = table4DurationUS * scale
	t0 := time.Now()
	for _, text := range w.cells {
		if _, err := decodeSpec(text); err != nil {
			return time.Since(t0), err
		}
	}
	return time.Since(t0), nil
}

// opSeed is the same for every op, so every op's text must be identical.
func (w *table4Workload) opSeed(wseed uint64, _ int) uint64 {
	return core.DeriveSeed(wseed, streamOps, 0)
}

func (w *table4Workload) simSec() float64 {
	return float64(len(w.cells)*table4Reps) * w.duration / 1e6
}

// workers is one par.Map worker per CPU.
func (w *table4Workload) workers() int { return runtime.NumCPU() }

func (w *table4Workload) op(seed uint64, o opOpts) (output, error) {
	e, ok := experiments.ByID("table4")
	if !ok {
		return output{}, errors.New("experiment table4 not registered")
	}
	opt := experiments.Default()
	opt.Seed = seed
	opt.DurationUS = w.duration
	opt.Reps = table4Reps
	opt.Parallel = w.workers()
	if o.serial {
		opt.Parallel = 1
	}
	opt.Calendar = o.calendar
	var buf bytes.Buffer
	sp := o.tr.start("experiments.run", o.parent)
	err := e.Run(&buf, opt)
	sp.end()
	return output{text: buf.Bytes()}, err
}

func (w *table4Workload) check(out, ref output) error {
	if s := string(out.text); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		return errors.New("table text holds a non-finite value")
	}
	if !bytes.Equal(out.text, ref.text) {
		return errors.New("table text differs from the reference render")
	}
	return nil
}

// jobs rebuilds the experiment's job list exactly as its factorial runner
// does: grid order, the op duration, and the shared seed chain. Set-up
// checks their Results and the traced run replays them through par.Map.
func (w *table4Workload) jobs(seed uint64) ([]core.Config, error) {
	var out []core.Config
	for row, c := range scenario.Table4Grid().Cells {
		cfg, err := c.Spec.Config()
		if err != nil {
			return nil, err
		}
		cfg.Duration = w.duration
		for _, s := range core.FactorialReplicationSeeds(seed, row, table4Reps) {
			cfg.Seed = s
			out = append(out, cfg)
		}
	}
	return out, nil
}

func (w *table4Workload) probe(seed uint64) (core.Config, error) {
	jobs, err := w.jobs(seed)
	if err != nil {
		return core.Config{}, err
	}
	return jobs[0], nil
}
