package core

import (
	"rocc/internal/par"
	"rocc/internal/stats"
)

// Replicated holds the results of r independent replications of one
// scenario (the paper uses r=50 with 90% confidence intervals).
type Replicated struct {
	Results []Result
}

// RunReplications runs reps independent replications of cfg, varying only
// the random seed (derived deterministically from cfg.Seed via DeriveSeed).
// Replications fan out across par.Workers() goroutines; results are
// identical to the serial path because every seed is pre-derived and each
// replication owns its model (simulator, RNG streams, resources).
func RunReplications(cfg Config, reps int) (Replicated, error) {
	return RunReplicationsParallel(cfg, reps, 0)
}

// ReplicationSeeds pre-derives the reps model seeds RunReplications uses
// for a scenario with the given base seed. Exposed so experiment drivers
// that flatten replications into larger work lists (the factorial designs)
// produce results byte-identical to the per-scenario path.
func ReplicationSeeds(base uint64, reps int) []uint64 {
	if reps < 1 {
		reps = 1
	}
	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = DeriveSeed(base, SeedStreamReplication, uint64(i))
	}
	return seeds
}

// FactorialReplicationSeeds derives the reps model seeds of one row of a
// factorial (or grid) design from the master seed: the row's base seed
// comes from SeedStreamFactorial at the row index, and the per-replication
// seeds from SeedStreamReplication under it. The experiment drivers and
// the distributed sweep engine share this chain, so a row's results are
// identical no matter which driver — or which host — runs it.
func FactorialReplicationSeeds(master uint64, row, reps int) []uint64 {
	return ReplicationSeeds(DeriveSeed(master, SeedStreamFactorial, uint64(row)), reps)
}

// RunReplicationsParallel is RunReplications with an explicit worker-pool
// size: 1 forces the serial path, 0 uses the par.Workers() default. Any
// pool size yields identical Results for a fixed cfg.Seed.
func RunReplicationsParallel(cfg Config, reps, workers int) (Replicated, error) {
	seeds := ReplicationSeeds(cfg.Seed, reps)
	results, err := par.Map(workers, seeds, func(_ int, seed uint64) (Result, error) {
		c := cfg
		c.Seed = seed
		m, err := New(c)
		if err != nil {
			return Result{}, err
		}
		return m.Run(), nil
	})
	if err != nil {
		return Replicated{}, err
	}
	return Replicated{Results: results}, nil
}

// Metric extracts one scalar from a Result.
type Metric func(Result) float64

// Named metric extractors for the experiment harness.
var (
	MetricPdCPUTime    Metric = func(r Result) float64 { return r.PdCPUTimePerNodeSec }
	MetricPdCPUUtil    Metric = func(r Result) float64 { return r.PdCPUUtilPct }
	MetricISCPUUtil    Metric = func(r Result) float64 { return r.ISCPUUtilPct }
	MetricMainCPUUtil  Metric = func(r Result) float64 { return r.MainCPUUtilPct }
	MetricMainCPUTime  Metric = func(r Result) float64 { return r.MainCPUTimeSec }
	MetricAppCPUUtil   Metric = func(r Result) float64 { return r.AppCPUUtilPct }
	MetricAppCPUTime   Metric = func(r Result) float64 { return r.AppCPUTimePerNodeSec }
	MetricLatency      Metric = func(r Result) float64 { return r.MonitoringLatencySec }
	MetricLatencyP50   Metric = func(r Result) float64 { return r.MonitoringLatencyP50Sec }
	MetricLatencyP95   Metric = func(r Result) float64 { return r.MonitoringLatencyP95Sec }
	MetricLatencyP99   Metric = func(r Result) float64 { return r.MonitoringLatencyP99Sec }
	MetricLatencyMax   Metric = func(r Result) float64 { return r.MonitoringLatencyMaxSec }
	MetricFwdLatency   Metric = func(r Result) float64 { return r.ForwardLatencySec }
	MetricThroughput   Metric = func(r Result) float64 { return r.ThroughputPerSec }
	MetricPdThroughput Metric = func(r Result) float64 { return r.PdThroughputPerSec }
	MetricNetUtil      Metric = func(r Result) float64 { return r.NetUtilPct }
	MetricBlockedPuts  Metric = func(r Result) float64 { return float64(r.BlockedPuts) }
	MetricSamplesRecvd Metric = func(r Result) float64 { return float64(r.SamplesReceived) }
)

// Mean returns the replication mean of a metric.
func (rep Replicated) Mean(m Metric) float64 {
	vals := rep.values(m)
	return stats.MeanOf(vals)
}

// CI returns the Student-t confidence interval of a metric at the given
// level (e.g. 0.90). With a single replication the half-width is zero.
func (rep Replicated) CI(m Metric, level float64) stats.ConfidenceInterval {
	vals := rep.values(m)
	if len(vals) < 2 {
		mean := stats.MeanOf(vals)
		return stats.ConfidenceInterval{Mean: mean, Level: level}
	}
	ci, err := stats.MeanCI(vals, level)
	if err != nil {
		return stats.ConfidenceInterval{Mean: stats.MeanOf(vals), Level: level}
	}
	return ci
}

func (rep Replicated) values(m Metric) []float64 {
	vals := make([]float64, len(rep.Results))
	for i, r := range rep.Results {
		vals[i] = m(r)
	}
	return vals
}
