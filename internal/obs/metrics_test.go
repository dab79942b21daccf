package obs

import (
	"math"
	"testing"

	"rocc/internal/des"
	"rocc/internal/procs"
	"rocc/internal/stats"
)

func TestHistogramEmptyAndExtremes(t *testing.T) {
	h := stats.NewBucketHistogram("h", []float64{10, 20, 30})
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Quantile(0) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(15)
	if got := h.Quantile(0); got != 15 {
		t.Fatalf("p0 = %v, want the minimum 15", got)
	}
	if got := h.Quantile(1); got != 15 {
		t.Fatalf("p100 = %v, want the maximum 15", got)
	}
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
}

func TestHistogramSingleObservationQuantiles(t *testing.T) {
	// With one observation every quantile collapses to that value: the
	// bucket range is clamped to [min, max] = [15, 15].
	h := stats.NewBucketHistogram("h", []float64{10, 20, 30})
	h.Observe(15)
	for _, p := range []float64{0.01, 0.5, 0.95, 0.99} {
		if got := h.Quantile(p); got != 15 {
			t.Fatalf("Quantile(%v) = %v, want 15", p, got)
		}
	}
}

func TestHistogramLinearInterpolationWithinBucket(t *testing.T) {
	// 100 observations uniformly filling the (0, 100] bucket region:
	// clamped bounds are [min, max] = [1, 100], and with all mass in one
	// bucket the p-quantile interpolates linearly across it.
	h := stats.NewBucketHistogram("h", []float64{100, 200})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	// rank(p=0.5) = 50 of 100 -> lo + 0.5*(hi-lo) = 1 + 49.5 = 50.5
	if got, want := h.Quantile(0.5), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// rank(p=0.95) = 95 -> 1 + 0.95*99 = 95.05
	if got, want := h.Quantile(0.95), 95.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("p95 = %v, want %v", got, want)
	}
}

func TestHistogramInterpolationAcrossBuckets(t *testing.T) {
	// 10 observations in (0,10], 90 in (10,100]: p50 has rank 50, which
	// lands 40/90 of the way through the second bucket [10, 100].
	h := stats.NewBucketHistogram("h", []float64{10, 100})
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	for i := 0; i < 90; i++ {
		h.Observe(float64(11 + i%89))
	}
	want := 10 + (50.0-10.0)/90.0*(99.0-10.0) // hi clamped to max = 99
	if got := h.Quantile(0.5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	// Quantiles are monotone in p.
	prev := math.Inf(-1)
	for _, p := range []float64{0.05, 0.25, 0.5, 0.75, 0.95, 0.99} {
		q := h.Quantile(p)
		if q < prev {
			t.Fatalf("quantiles not monotone: p=%v gave %v after %v", p, q, prev)
		}
		prev = q
	}
}

// Where the density falls across a bucket, as it does in any tail, the
// quantile follows the slope the neighbouring buckets show. 100,000
// values spread by the law with density 2(100 − x)/100² on [0, 100],
// whose p-quantile is 100(1 − √(1 − p)), land in buckets 10 wide; inside
// the buckets with bounded neighbours the sloped estimate is within 0.001
// of the true quantile (a linear density has an exact central
// difference), where the flat interpolation is off by nearly 0.5.
func TestHistogramSlopedInterpolationInTail(t *testing.T) {
	var bounds []float64
	for b := 10.0; b <= 100; b += 10 {
		bounds = append(bounds, b)
	}
	h := stats.NewBucketHistogram("h", bounds)
	const n = 100000
	quantile := func(p float64) float64 { return 100 * (1 - math.Sqrt(1-p)) }
	for k := 0; k < n; k++ {
		h.Observe(quantile((float64(k) + 0.5) / n))
	}
	worstFlat := 0.0
	for p := 0.37; p < 0.95; p += 0.01 { // buckets (20, 30] to (70, 80]
		exact := quantile(p)
		got := h.Quantile(p)
		if math.Abs(got-exact) > 0.001 {
			t.Errorf("p%.2f = %v, true quantile %v", p, got, exact)
		}
		// The flat estimate: linear through the bucket holding rank p·n.
		i := int(exact / 10)
		below := n * (1 - math.Pow(1-float64(i)/10, 2))
		inside := n * (math.Pow(1-float64(i)/10, 2) - math.Pow(1-float64(i+1)/10, 2))
		flat := 10*float64(i) + 10*(p*n-below)/inside
		worstFlat = math.Max(worstFlat, math.Abs(flat-exact))
	}
	if worstFlat < 0.4 {
		t.Errorf("the flat interpolation is off by at most %v here; the case does not test the slope", worstFlat)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	// All mass above the last bound: the overflow bucket's range clamps
	// to [min, max] of the observed values.
	h := stats.NewBucketHistogram("h", []float64{10})
	h.Observe(50)
	h.Observe(150)
	if got := h.Quantile(0.99); got > 150 || got < 50 {
		t.Fatalf("overflow p99 = %v, want within [50, 150]", got)
	}
	if got := h.Max(); got != 150 {
		t.Fatalf("max = %v, want 150", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := stats.ExpBuckets(100, 2, 4)
	want := []float64{100, 200, 400, 800}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestMetricsResetClearsEverything(t *testing.T) {
	m := NewMetrics(procs.NewLatencyHistogram())
	m.Generated.Add(5)
	m.Latency.Observe(1000)
	ser := &Series{Name: "s", T: []float64{1}, V: []float64{2}}
	m.series = append(m.series, ser)
	m.Reset()
	if m.Generated.Value() != 0 {
		t.Fatal("counter survived Reset")
	}
	if m.Latency.Count() != 0 {
		t.Fatal("histogram survived Reset")
	}
	if len(ser.T) != 0 || len(ser.V) != 0 {
		t.Fatal("series data survived Reset")
	}
}

func TestSamplerTicks(t *testing.T) {
	sim := des.New()
	s := NewSampler(sim, 10)
	calls := 0
	ser := s.Probe(nil, "p", func(t float64) float64 { calls++; return t })
	s.Start()
	sim.Run(35)
	if calls != 3 {
		t.Fatalf("probe ran %d times in 35us at interval 10, want 3", calls)
	}
	if len(ser.T) != 3 || ser.T[0] != 10 || ser.V[2] != 30 {
		t.Fatalf("series = %+v, want ticks at 10,20,30 echoing time", ser)
	}
}
