package live

import (
	"strings"
	"testing"

	"rocc/internal/des"
	"rocc/internal/obs"
	"rocc/internal/procs"
)

// FuzzParseExposition throws arbitrary byte soup at the exposition
// validator. The parser must never panic, and for inputs it accepts the
// two entry points must agree: same sample count, and every declared
// family resolvable (non-empty name in sorted order). A real exporter
// output seeds the corpus so the fuzzer starts from the accepted grammar
// and mutates outward.
func FuzzParseExposition(f *testing.F) {
	m := obs.NewMetrics(procs.NewLatencyHistogram())
	m.Generated.Add(10)
	m.Latency.Observe(250)
	sim := des.New()
	sampler := obs.NewSampler(sim, 10)
	sampler.Probe(m, "sim_time_sec", func(t float64) float64 { return t / 1e6 })
	sampler.Start()
	sim.Run(15)
	e := NewExporter()
	e.SetRun(m)
	var b strings.Builder
	if err := e.WriteOpenMetrics(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	f.Add("# EOF\n")
	f.Add("# TYPE a counter\na_total 1\n# EOF\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 7.5\n# EOF\n")
	f.Add("# HELP x y\n# TYPE x gauge\nx{l=\"v\"} NaN 123\n# EOF\n")
	f.Add("mystery 1\n# EOF\n")
	f.Add("# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n")

	f.Fuzz(func(t *testing.T, in string) {
		n1, err1 := ParseExposition(strings.NewReader(in))
		n2, fams, err2 := ParseExpositionFamilies(strings.NewReader(in))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("entry points disagree: ParseExposition err=%v, ParseExpositionFamilies err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if n1 != n2 {
			t.Fatalf("sample counts disagree: %d vs %d", n1, n2)
		}
		for i, name := range fams {
			if name == "" {
				t.Fatal("accepted exposition declared an empty family name")
			}
			if i > 0 && !(fams[i-1] < name) {
				t.Fatalf("families not sorted/unique: %q before %q", fams[i-1], name)
			}
		}
	})
}
