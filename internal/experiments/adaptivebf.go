package experiments

import (
	"fmt"
	"io"

	"rocc/internal/core"
	"rocc/internal/forward"
	"rocc/internal/par"
	"rocc/internal/report"
	"rocc/internal/stats"
)

func init() {
	register("ext-adaptive-bf",
		"Extension: adaptive batch-size controller vs CF and fixed BF on the Figure 19 grid",
		runExtAdaptiveBF)
	readsPolicy("ext-adaptive-bf")
}

// AdaptiveBFOptions parameterizes the adaptive-batching sweep: the
// Figure 19 operating grid (sampling period × node count) and the fixed
// batch sizes the adaptive controller competes against.
type AdaptiveBFOptions struct {
	// SamplingPeriodsMS is the sampling-period axis in milliseconds.
	SamplingPeriodsMS []float64
	// Nodes is the node-count axis.
	Nodes []int
	// Batches are the fixed BF batch sizes swept per cell; the best
	// (lowest reps-mean forwarding latency) becomes the per-cell oracle
	// the adaptive candidate is judged against.
	Batches []int
}

// DefaultAdaptiveBF returns the default sweep: the Figure 19 sampling
// periods and node counts with batch sizes spanning the knee.
func DefaultAdaptiveBF() AdaptiveBFOptions {
	return AdaptiveBFOptions{
		SamplingPeriodsMS: []float64{1, 8, 40, 64},
		Nodes:             []int{2, 8},
		Batches:           []int{1, 4, 16, 32, 128},
	}
}

// AdaptiveBFPoint is one policy variant's reps-mean metrics in one cell.
type AdaptiveBFPoint struct {
	// Policy is the -policy spec of the variant ("cf", "bf:16", "abf").
	Policy string
	// ForwardLatencySec is the reps-mean forwarding latency.
	ForwardLatencySec float64
	// PdUSPerSample is the reps-mean daemon CPU cost per delivered
	// sample, in microseconds.
	PdUSPerSample float64
	// FinalBatchMean and Adjustments are adaptive-only telemetry: the
	// reps-mean final batch target and total control decisions taken.
	FinalBatchMean float64
	Adjustments    int
}

// AdaptiveBFCell is one grid cell's comparison: CF, every fixed batch,
// the best fixed batch (the per-cell oracle), and the adaptive candidate.
type AdaptiveBFCell struct {
	SamplingPeriodMS float64
	Nodes            int
	CF               AdaptiveBFPoint
	Fixed            []AdaptiveBFPoint
	Best             AdaptiveBFPoint
	Adaptive         AdaptiveBFPoint
}

// RunAdaptiveBFSweep runs the adaptive-batching comparison over the grid.
// Per cell, every policy variant replays the same replication seeds
// (derived from SeedStreamAdaptive at the cell index), so the variants
// see identical workload randomness and the latency/CPU ratios are free
// of common-mode noise. The flattened cell × variant × replication work
// list fans out across opt.Parallel workers; results aggregate in index
// order, so output is byte-identical at any pool size.
func RunAdaptiveBFSweep(opt Options, ab AdaptiveBFOptions) ([]AdaptiveBFCell, error) {
	opt = opt.normalized()
	def := DefaultAdaptiveBF()
	if len(ab.SamplingPeriodsMS) == 0 {
		ab.SamplingPeriodsMS = def.SamplingPeriodsMS
	}
	if len(ab.Nodes) == 0 {
		ab.Nodes = def.Nodes
	}
	if len(ab.Batches) == 0 {
		ab.Batches = def.Batches
	}
	// Variant order: CF, the fixed batches, then the candidate (the
	// default adaptive controller unless opt.Policy overrides it).
	variants := []forward.Strategy{forward.NewCF()}
	for _, b := range ab.Batches {
		variants = append(variants, forward.NewFixedBF(b))
	}
	cand := opt.Policy
	if cand == nil {
		cand = forward.NewAdaptiveBF(forward.ControllerConfig{})
	}
	variants = append(variants, cand)

	type cellKey struct {
		spMS  float64
		nodes int
	}
	var keys []cellKey
	for _, sp := range ab.SamplingPeriodsMS {
		for _, n := range ab.Nodes {
			keys = append(keys, cellKey{sp, n})
		}
	}

	reps := opt.Reps
	type job struct {
		ci, vi, ri int
		cfg        core.Config
	}
	var jobs []job
	for ci, k := range keys {
		seeds := core.ReplicationSeeds(
			core.DeriveSeed(opt.Seed, core.SeedStreamAdaptive, uint64(ci)), reps)
		for vi, v := range variants {
			for ri, seed := range seeds {
				cfg := core.DefaultConfig()
				cfg.Nodes = k.nodes
				cfg.SamplingPeriod = k.spMS * 1000
				cfg.Seed = seed
				cfg.Strategy = v
				jobs = append(jobs, job{ci, vi, ri, cfg})
			}
		}
	}
	flat, err := par.Map(opt.Parallel, jobs, func(_ int, j job) (core.Result, error) {
		res, err := runOne(j.cfg, opt)
		if err != nil {
			return core.Result{}, fmt.Errorf("ext-adaptive-bf sp=%v nodes=%d %s: %w",
				keys[j.ci].spMS, keys[j.ci].nodes, variants[j.vi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate replications per (cell, variant) in index order.
	type agg struct {
		lat, cpu, batch []float64
		adjustments     int
	}
	aggs := make([]agg, len(keys)*len(variants))
	for k, j := range jobs {
		r := flat[k]
		a := &aggs[j.ci*len(variants)+j.vi]
		a.lat = append(a.lat, r.ForwardLatencySec)
		a.cpu = append(a.cpu, pdUSPerSample(r, keys[j.ci].nodes))
		if r.AdaptiveFinalBatchMean > 0 {
			a.batch = append(a.batch, r.AdaptiveFinalBatchMean)
		}
		a.adjustments += r.AdaptiveAdjustments
	}
	point := func(ci, vi int) AdaptiveBFPoint {
		a := aggs[ci*len(variants)+vi]
		return AdaptiveBFPoint{
			Policy:            variants[vi].String(),
			ForwardLatencySec: stats.MeanOf(a.lat),
			PdUSPerSample:     stats.MeanOf(a.cpu),
			FinalBatchMean:    stats.MeanOf(a.batch),
			Adjustments:       a.adjustments,
		}
	}

	cells := make([]AdaptiveBFCell, 0, len(keys))
	for ci, k := range keys {
		c := AdaptiveBFCell{SamplingPeriodMS: k.spMS, Nodes: k.nodes}
		c.CF = point(ci, 0)
		for bi := range ab.Batches {
			c.Fixed = append(c.Fixed, point(ci, 1+bi))
		}
		// Best is the lowest reps-mean latency among fixed batches that
		// actually delivered data: a batch too large for the cell's sample
		// rate never fills within the run, reports zero latency, and would
		// otherwise win the argmin with an empty result.
		for _, p := range c.Fixed {
			if p.ForwardLatencySec <= 0 {
				continue
			}
			if c.Best.ForwardLatencySec <= 0 || p.ForwardLatencySec < c.Best.ForwardLatencySec {
				c.Best = p
			}
		}
		if c.Best.Policy == "" {
			c.Best = c.Fixed[0]
		}
		c.Adaptive = point(ci, len(variants)-1)
		cells = append(cells, c)
	}
	return cells, nil
}

// pdUSPerSample is the daemon CPU cost per delivered sample in
// microseconds: total daemon busy time over all nodes divided by the
// samples that reached the main process.
func pdUSPerSample(r core.Result, nodes int) float64 {
	if r.SamplesReceived == 0 {
		return 0
	}
	return r.PdCPUTimePerNodeSec * float64(nodes) * 1e6 / float64(r.SamplesReceived)
}

func runExtAdaptiveBF(w io.Writer, opt Options) error {
	opt = opt.normalized()
	cells, err := RunAdaptiveBFSweep(opt, DefaultAdaptiveBF())
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Adaptive batching vs CF and fixed BF (r=%d, %.0f s runs)",
			opt.Reps, opt.DurationUS/1e6),
		"SP (ms)", "nodes", "policy", "fwd latency (ms)", "Pd CPU (us/sample)",
		"final batch", "adjustments")
	for _, c := range cells {
		sp, nodes := report.F(c.SamplingPeriodMS), fmt.Sprint(c.Nodes)
		row := func(p AdaptiveBFPoint) {
			batch, adj := "", ""
			if p.FinalBatchMean > 0 {
				batch = report.F(p.FinalBatchMean)
				adj = fmt.Sprint(p.Adjustments)
			}
			t.AddRow(sp, nodes, p.Policy,
				report.F(p.ForwardLatencySec*1000), report.F(p.PdUSPerSample), batch, adj)
		}
		row(c.CF)
		for _, p := range c.Fixed {
			row(p)
		}
		row(c.Adaptive)
	}
	if err := t.Render(w); err != nil {
		return err
	}

	s := report.NewTable("Adaptive candidate vs per-cell best fixed batch",
		"SP (ms)", "nodes", "best fixed", "latency ratio", "CPU ratio")
	for _, c := range cells {
		latRatio, cpuRatio := c.Ratios()
		s.AddRow(report.F(c.SamplingPeriodMS), fmt.Sprint(c.Nodes), c.Best.Policy,
			report.F(latRatio), report.F(cpuRatio))
	}
	return s.Render(w)
}

// Ratios returns the adaptive candidate's forwarding-latency and
// per-sample CPU cost relative to the cell's best fixed batch (1.0 =
// parity; lower is better). A zero denominator yields 0.
func (c AdaptiveBFCell) Ratios() (lat, cpu float64) {
	if c.Best.ForwardLatencySec > 0 {
		lat = c.Adaptive.ForwardLatencySec / c.Best.ForwardLatencySec
	}
	if c.Best.PdUSPerSample > 0 {
		cpu = c.Adaptive.PdUSPerSample / c.Best.PdUSPerSample
	}
	return lat, cpu
}
