package core

import (
	"testing"

	"rocc/internal/forward"
)

// Simulator-throughput benchmarks: events dispatched per wall second for
// representative model scales. These are the performance meta-metrics of
// the simulation engine itself.

func benchModel(b *testing.B, cfg Config) {
	b.Helper()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i) + 1
		m, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.Run()
		events += m.Sim.Dispatched
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkModelNOW8(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Duration = 1e6
	benchModel(b, cfg)
}

func BenchmarkModelSMP16x32(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Arch = SMP
	cfg.Nodes = 16
	cfg.AppProcs = 32
	cfg.Duration = 1e6
	benchModel(b, cfg)
}

func BenchmarkModelMPP256Tree(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Arch = MPP
	cfg.Nodes = 256
	cfg.Strategy = forward.NewFixedBF(32)
	cfg.Forwarding = forward.Tree
	cfg.Duration = 1e6
	benchModel(b, cfg)
}
