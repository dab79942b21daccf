package live

import (
	"slices"
	"strings"
	"testing"

	"rocc/internal/des"
	"rocc/internal/obs"
	"rocc/internal/procs"
)

// FuzzParseExposition throws arbitrary byte soup at the exposition
// validator. The parser must never panic, and for inputs it accepts the
// two entry points must agree: same sample count, and every declared
// family resolvable (non-empty name in sorted order). On every input the
// index-scanning parser must also agree with the line-and-fields
// reference it replaced (refParseExposition): accept or reject, the
// sample count and the family list. A real exporter output seeds the
// corpus so the fuzzer starts from the accepted grammar and mutates
// outward.
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
	f.Add("#\tTYPE\u00a0a\u0085gauge\r\na{}1 2\r\n#x EOF\r\n")
	f.Add("# TYPE a counter\na_total\t1\n# TYPE b gauge extra\nb 1 2 3\n# EOF")
	f.Add("# TYPE a:b histogram\na:b_sum{le=\"}\"} -Inf\n# EOF\n\r")

	f.Fuzz(func(t *testing.T, in string) {
		n1, err1 := ParseExposition(strings.NewReader(in))
		n2, fams, err2 := ParseExpositionFamilies(strings.NewReader(in))
		nr, refFams, errRef := refParseExposition(strings.NewReader(in))
		if (err2 == nil) != (errRef == nil) {
			t.Fatalf("parser and reference disagree on %q: err=%v, reference err=%v", in, err2, errRef)
		}
		if err2 == nil && (n2 != nr || !slices.Equal(fams, refFams)) {
			t.Fatalf("parser and reference disagree on %q: %d samples %q, reference %d samples %q",
				in, n2, fams, nr, refFams)
		}
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

// The parser reads the whole exposition at once, but keeps the 1 MiB
// line limit the reference inherits from bufio.Scanner: both accept a
// line one byte under it, terminated or not, and both reject a line of
// 1 MiB. The fuzzer's inputs never come near the limit.
func TestParseExpositionLineLimit(t *testing.T) {
	// line returns a sample line of exactly n bytes, its label set padded.
	line := func(n int) string { return "a{" + strings.Repeat("x", n-len("a{} 1")) + "} 1" }
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{"# TYPE a gauge\n" + line(1<<20-1) + "\n# EOF\n", true},
		{"# TYPE a gauge\n" + line(1<<20) + "\n# EOF\n", false},
		{"# EOF " + strings.Repeat("x", 1<<20-1-len("# EOF ")), true},
		{"# EOF " + strings.Repeat("x", 1<<20-len("# EOF ")), false},
	} {
		_, _, err := ParseExpositionFamilies(strings.NewReader(tc.in))
		_, _, errRef := refParseExposition(strings.NewReader(tc.in))
		if (err == nil) != tc.ok || (errRef == nil) != tc.ok {
			t.Errorf("%d-byte input: accepted %v, reference accepted %v, want %v",
				len(tc.in), err == nil, errRef == nil, tc.ok)
		}
	}
}
