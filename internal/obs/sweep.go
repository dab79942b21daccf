package obs

// SweepMetrics counts the fault-handling actions of a distributed sweep
// (internal/dist): how often shards were retried, speculatively
// re-dispatched, or drained through the local fallback, and how the
// worker fleet fared. None of these counters affect sweep output — the
// merged results are byte-identical whatever they read — so they are the
// observability surface for judging a run's health.
type SweepMetrics struct {
	Dispatched     Counter // shard attempts handed to workers (first attempts)
	Completed      Counter // shards completed (first completion only)
	Retries        Counter // shards requeued for another attempt after a failure
	Redispatches   Counter // speculative duplicate dispatches of straggling shards
	Duplicates     Counter // completions discarded because the shard was already done
	Timeouts       Counter // attempts killed at the per-shard deadline
	WorkerFailures Counter // attempts that returned a worker/transport error
	WorkerRestarts Counter // replacement workers started after a failure
	Quarantines    Counter // worker slots retired after repeated failures
	LocalShards    Counter // shards drained through the local fallback
}

// NewSweepMetrics returns a named sweep-metric registry.
func NewSweepMetrics() *SweepMetrics {
	m := &SweepMetrics{}
	for name, c := range map[string]*Counter{
		"dispatched":      &m.Dispatched,
		"completed":       &m.Completed,
		"retries":         &m.Retries,
		"redispatches":    &m.Redispatches,
		"duplicates":      &m.Duplicates,
		"timeouts":        &m.Timeouts,
		"worker_failures": &m.WorkerFailures,
		"worker_restarts": &m.WorkerRestarts,
		"quarantines":     &m.Quarantines,
		"local_shards":    &m.LocalShards,
	} {
		c.Name = name
	}
	return m
}

// Counters returns the registry's counters in a stable order.
func (m *SweepMetrics) Counters() []*Counter {
	return []*Counter{
		&m.Dispatched, &m.Completed, &m.Retries, &m.Redispatches,
		&m.Duplicates, &m.Timeouts, &m.WorkerFailures, &m.WorkerRestarts,
		&m.Quarantines, &m.LocalShards,
	}
}
