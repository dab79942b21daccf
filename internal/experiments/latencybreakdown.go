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
	register("ext-latency-breakdown",
		"Extension: per-stage latency decomposition of CF vs fixed BF vs adaptive BF across NOW/SMP/MPP",
		runExtLatencyBreakdown)
}

// LatencyBreakdownOptions parameterizes the decomposition sweep: which
// architecture cells to run and which policies to decompose in each.
type LatencyBreakdownOptions struct {
	// Archs are the architecture cells (default NOW, SMP, MPP-tree).
	Archs []string
	// Batch is the fixed BF batch size (default 64 — dense enough that
	// batch residency is the policy's visible latency price).
	Batch int
	// SamplingPeriodMS is the sampling period in milliseconds (default 1).
	SamplingPeriodMS float64
}

// DefaultLatencyBreakdown returns the default sweep.
func DefaultLatencyBreakdown() LatencyBreakdownOptions {
	return LatencyBreakdownOptions{
		Archs:            []string{"now", "smp", "mpp"},
		Batch:            64,
		SamplingPeriodMS: 1,
	}
}

// LatencyBreakdownPoint is one policy's reps-mean decomposition in one
// cell: the six stages in pipeline order plus the aggregate latency.
type LatencyBreakdownPoint struct {
	// Policy is the -policy spec of the variant ("cf", "bf:64", "abf").
	Policy string
	// Stages are the reps-mean per-stage summaries, in stage order.
	Stages []core.StageLatency
	// LatencySec is the reps-mean end-to-end sample latency.
	LatencySec float64
}

// Share returns the named stage's reps-mean share (percent), 0 if absent.
func (p LatencyBreakdownPoint) Share(stage string) float64 {
	for _, s := range p.Stages {
		if s.Stage == stage {
			return s.SharePct
		}
	}
	return 0
}

// LatencyBreakdownCell is one architecture cell's comparison.
type LatencyBreakdownCell struct {
	Arch   string
	Nodes  int
	Points []LatencyBreakdownPoint
}

// latencyCellConfig builds the base configuration of one architecture
// cell: an 8-node NOW, an 8-CPU SMP, or an 8-node MPP with tree
// forwarding.
func latencyCellConfig(arch string) (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Nodes = 8
	cfg.AppProcs = 2
	switch arch {
	case "now":
	case "smp":
		cfg.Arch = core.SMP
		cfg.AppProcs = 8
	case "mpp":
		cfg.Arch = core.MPP
		cfg.Forwarding = forward.Tree
	default:
		return cfg, fmt.Errorf("ext-latency-breakdown: unknown arch %q", arch)
	}
	return cfg, nil
}

// runProvenance mirrors runOne with the provenance engine attached, so
// the Result carries its LatencyStages decomposition. The engine only
// reads lifecycle hooks: every other Result field is byte-identical to
// the plain run (pinned by TestProvenanceLeavesResultUnchanged).
func runProvenance(cfg core.Config, opt Options) (core.Result, error) {
	m, err := core.New(scaled(cfg, opt))
	if err != nil {
		return core.Result{}, err
	}
	if _, err := m.EnableObservability(core.ObsOptions{Provenance: true}); err != nil {
		return core.Result{}, err
	}
	return m.Run(), nil
}

// RunLatencyBreakdown decomposes end-to-end sample latency per stage for
// CF, a dense fixed BF, and the adaptive controller in each architecture
// cell. Per cell, every policy replays the same replication seeds
// (derived from SeedStreamLatency at the cell index); the flattened
// cell × policy × replication list fans out across opt.Parallel workers
// and aggregates in index order, so output is byte-identical at any pool
// size and calendar.
func RunLatencyBreakdown(opt Options, lb LatencyBreakdownOptions) ([]LatencyBreakdownCell, error) {
	opt = opt.normalized()
	def := DefaultLatencyBreakdown()
	if len(lb.Archs) == 0 {
		lb.Archs = def.Archs
	}
	if lb.Batch <= 0 {
		lb.Batch = def.Batch
	}
	if lb.SamplingPeriodMS <= 0 {
		lb.SamplingPeriodMS = def.SamplingPeriodMS
	}

	variants := []forward.Strategy{
		forward.NewCF(),
		forward.NewFixedBF(lb.Batch),
		forward.NewAdaptiveBF(forward.ControllerConfig{}),
	}

	reps := opt.Reps
	type job struct {
		ci, vi, ri int
		cfg        core.Config
	}
	var jobs []job
	for ci, arch := range lb.Archs {
		base, err := latencyCellConfig(arch)
		if err != nil {
			return nil, err
		}
		base.SamplingPeriod = lb.SamplingPeriodMS * 1000
		seeds := core.ReplicationSeeds(
			core.DeriveSeed(opt.Seed, core.SeedStreamLatency, uint64(ci)), reps)
		for vi, v := range variants {
			for ri, seed := range seeds {
				cfg := base
				cfg.Seed = seed
				cfg.Strategy = v
				jobs = append(jobs, job{ci, vi, ri, cfg})
			}
		}
	}
	flat, err := par.Map(opt.Parallel, jobs, func(_ int, j job) (core.Result, error) {
		res, err := runProvenance(j.cfg, opt)
		if err != nil {
			return core.Result{}, fmt.Errorf("ext-latency-breakdown %s %s: %w",
				lb.Archs[j.ci], variants[j.vi], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate replications per (cell, policy) in index order: per-stage
	// means over the replications that delivered samples.
	type agg struct {
		stages [][]core.StageLatency
		lat    []float64
	}
	aggs := make([]agg, len(lb.Archs)*len(variants))
	for k, j := range jobs {
		r := flat[k]
		a := &aggs[j.ci*len(variants)+j.vi]
		if len(r.LatencyStages) > 0 {
			a.stages = append(a.stages, r.LatencyStages)
		}
		a.lat = append(a.lat, r.MonitoringLatencySec)
	}
	point := func(ci, vi int) LatencyBreakdownPoint {
		a := aggs[ci*len(variants)+vi]
		p := LatencyBreakdownPoint{Policy: variants[vi].String(), LatencySec: stats.MeanOf(a.lat)}
		if len(a.stages) == 0 {
			return p
		}
		n := len(a.stages[0])
		p.Stages = make([]core.StageLatency, n)
		for si := 0; si < n; si++ {
			p.Stages[si].Stage = a.stages[0][si].Stage
			var mean, p50, p95, p99, share []float64
			for _, rep := range a.stages {
				mean = append(mean, rep[si].MeanSec)
				p50 = append(p50, rep[si].P50Sec)
				p95 = append(p95, rep[si].P95Sec)
				p99 = append(p99, rep[si].P99Sec)
				share = append(share, rep[si].SharePct)
			}
			p.Stages[si].MeanSec = stats.MeanOf(mean)
			p.Stages[si].P50Sec = stats.MeanOf(p50)
			p.Stages[si].P95Sec = stats.MeanOf(p95)
			p.Stages[si].P99Sec = stats.MeanOf(p99)
			p.Stages[si].SharePct = stats.MeanOf(share)
		}
		return p
	}

	cells := make([]LatencyBreakdownCell, 0, len(lb.Archs))
	for ci, arch := range lb.Archs {
		base, _ := latencyCellConfig(arch)
		c := LatencyBreakdownCell{Arch: arch, Nodes: base.Nodes}
		for vi := range variants {
			c.Points = append(c.Points, point(ci, vi))
		}
		cells = append(cells, c)
	}
	return cells, nil
}

func runExtLatencyBreakdown(w io.Writer, opt Options) error {
	opt = opt.normalized()
	lb := DefaultLatencyBreakdown()
	cells, err := RunLatencyBreakdown(opt, lb)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Latency decomposition: dominant stage per cell (r=%d, %.0f s runs)",
			opt.Reps, opt.DurationUS/1e6),
		"arch", "policy", "latency (ms)", "dominant stage", "share")
	for _, c := range cells {
		for _, p := range c.Points {
			dom, domShare := "", 0.0
			for _, s := range p.Stages {
				if s.SharePct > domShare {
					dom, domShare = s.Stage, s.SharePct
				}
			}
			t.AddRow(c.Arch, p.Policy, report.F(p.LatencySec*1000), dom, report.Pct(domShare))
		}
	}
	if err := t.Render(w); err != nil {
		return err
	}
	for _, c := range cells {
		for _, p := range c.Points {
			wf := report.Waterfall{
				Title: fmt.Sprintf("%s / %s", c.Arch, p.Policy),
				Rows:  core.StageRows(p.Stages),
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := wf.Render(w); err != nil {
				return err
			}
		}
	}
	return nil
}
