package live

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"rocc/internal/des"
	"rocc/internal/obs"
	"rocc/internal/obs/prov"
	"rocc/internal/procs"
	"rocc/internal/resources"
)

// benchExporter returns an exporter shaped like an observed 16-node run's:
// the run counters, the latency histogram, 38 sampler gauges and the six
// stage histograms, all holding observations.
func benchExporter() *Exporter {
	m := obs.NewMetrics(procs.NewLatencyHistogram())
	for v := 1.0; v < 1e7; v *= 1.01 {
		m.Latency.Observe(v)
	}
	sim := des.New()
	sampler := obs.NewSampler(sim, 10)
	for i := 0; i < 38; i++ {
		sampler.Probe(m, fmt.Sprintf("cpu%d.util_pct", i), func(t float64) float64 { return t / 7 })
	}
	sampler.Start()
	sim.Run(15)
	eng := prov.NewEngine()
	for seq := 0; seq < 2000; seq++ {
		s := resources.Sample{GenTime: float64(seq), Seq: seq}
		eng.PipePut(s.GenTime+1, s)
		eng.PipeGet(s.GenTime+float64(seq%97), s)
		eng.BatchForwarded(0, s.GenTime+100, []resources.Sample{s}, 1)
		eng.SampleDelivered(s.GenTime+float64(100+seq%1013), s, float64(100+seq%1013))
	}
	e := NewExporter()
	e.SetRun(m)
	for st := prov.Stage(0); st < prov.NumStages; st++ {
		e.AddHistogram(eng.Histogram(st), "per-sample dwell in stage "+st.String())
	}
	return e
}

func BenchmarkWriteOpenMetrics(b *testing.B) {
	e := benchExporter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.WriteOpenMetrics(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseExpositionFamilies(b *testing.B) {
	var text bytes.Buffer
	if err := benchExporter().WriteOpenMetrics(&text); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(text.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseExpositionFamilies(bytes.NewReader(text.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
