package prov

import (
	"testing"

	"rocc/internal/resources"
)

// BenchmarkProvenancePerSample drives the model's hook order for 16
// processes, one per node, each forwarding 18-sample messages directly
// to the main process. One op is a round: the processes write their
// samples interleaved (PipePut, then SampleGenerated, per sample), then
// each daemon drains its pipe (PipeGet per sample) and forwards the
// batch, and the main process receives the 16 messages. It reports the
// engine's cost per sample and fails if a steady-state round allocates.
func BenchmarkProvenancePerSample(b *testing.B) {
	const procs, batchLen = 16, 18
	e := NewEngine()
	batches := make([][]resources.Sample, procs)
	for p := range batches {
		batches[p] = make([]resources.Sample, batchLen)
	}
	seq, t := 0, 0.0
	round := func() {
		for i := 0; i < batchLen; i++ {
			for p, batch := range batches {
				s := resources.Sample{GenTime: t, Node: p, Seq: seq}
				batch[i] = s
				e.PipePut(t, s)
				e.SampleGenerated(t, s, false)
				t += 125
			}
			seq++
		}
		for p, batch := range batches {
			for _, s := range batch {
				e.PipeGet(t+50, s)
			}
			e.BatchForwarded(p, t+300, batch, 1)
		}
		for _, batch := range batches {
			e.BatchDelivered(t+900, batch)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs > 0 {
		b.Fatalf("a steady-state round allocated %.2f objects", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*procs*batchLen), "ns/sample")
	if e.InFlight() != 0 || e.Delivered() != uint64(seq*procs) {
		b.Fatalf("in flight %d, delivered %d of %d", e.InFlight(), e.Delivered(), seq*procs)
	}
}
