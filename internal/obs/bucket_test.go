package obs

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rocc/internal/stats"
)

// linearBucket is the reference bucket lookup: the linear scan the start
// table replaces.
func linearBucket(b []float64, v float64) int {
	i := 0
	for i < len(b) && v > b[i] {
		i++
	}
	return i
}

// encodeBounds packs float64s into the fuzzer's byte form.
func encodeBounds(bs ...float64) []byte {
	out := make([]byte, 8*len(bs))
	for i, b := range bs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(b))
	}
	return out
}

// decodeBounds reads up to 256 float64s (room for the 216 latency
// bounds), drops NaN, sorts and dedupes, so any byte string yields a
// valid strictly ascending bound set.
func decodeBounds(raw []byte) []float64 {
	var bs []float64
	for len(raw) >= 8 && len(bs) < 256 {
		if b := math.Float64frombits(binary.LittleEndian.Uint64(raw)); !math.IsNaN(b) {
			bs = append(bs, b)
		}
		raw = raw[8:]
	}
	sort.Float64s(bs)
	out := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] { // also folds -0 into an earlier +0 or vice versa
			out = append(out, b)
		}
	}
	return out
}

// checkBucket observes v, the special values, and every bound with its
// neighbours on both sides, and compares the bucket counts with where the
// reference puts each value; on a mismatch it names the first value the
// histogram misplaces.
func checkBucket(t *testing.T, bs []float64, v float64) {
	t.Helper()
	probes := []float64{v, -v, math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, b := range bs {
		probes = append(probes, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
	}
	h := stats.NewBucketHistogram("f", bs)
	want := make([]uint64, len(bs)+1)
	for _, x := range probes {
		h.Observe(x)
		want[linearBucket(bs, x)]++
	}
	if got := h.Snapshot().Counts; !slices.Equal(got, want) {
		for _, x := range probes {
			one := stats.NewBucketHistogram("f", bs)
			one.Observe(x)
			if got := slices.Index(one.Snapshot().Counts, 1); got != linearBucket(bs, x) {
				t.Fatalf("bounds %v: Observe(%v) counted in bucket %d, linear scan gives %d", bs, x, got, linearBucket(bs, x))
			}
		}
		t.Fatalf("bounds %v: bucket counts %v, linear scan gives %v", bs, got, want)
	}
}

// FuzzHistogramBucket is the differential referee for the O(1) bucket
// lookup of stats.BucketHistogram: on arbitrary ascending bounds and
// values it must count each value exactly where the linear scan puts it.
func FuzzHistogramBucket(f *testing.F) {
	seeds := [][]float64{
		nil,                                 // no bounds: everything in bucket 0
		stats.ExpBuckets(1, math.Sqrt2, 60), // the prov stage buckets
		stats.ExpBuckets(1, math.Exp2(1.0/8), 216), // the latency buckets
		{-5, 0, 1, 2},                       // non-positive first bounds
		{0},                                 // a lone zero bound
		{-math.MaxFloat64, -1},              // only negative bounds
		{1, 10, math.Inf(1)},                // +Inf last bound
		{math.Inf(-1), 0.5, math.Inf(1)},    // both infinities
		{5e-324, 1e-310, 0x1p-1022, 1e-300}, // subnormals into normals
		{1e-300, 1e300},                     // a table spanning most exponents
		{3, 3 + 0x1p-51, 3 + 0x1p-50},       // adjacent floats
	}
	for _, bs := range seeds {
		for _, v := range []float64{0, 1, 1.5, 99.9, 1e6, -3, 7e-320} {
			f.Add(encodeBounds(bs...), v)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte, v float64) {
		checkBucket(t, decodeBounds(raw), v)
	})
}

// NaN or non-ascending bounds would make the scan's answer depend on the
// lookup order; NewBucketHistogram rejects them.
func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bs := range [][]float64{{1, 1}, {2, 1}, {math.NaN()}, {1, math.NaN(), 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBucketHistogram(%v) did not panic", bs)
				}
			}()
			stats.NewBucketHistogram("bad", bs)
		}()
	}
}

// The members of a set keep separate contents, and ObserveSet lands each
// value in its own member without allocating; a call with several rows
// records them as one call per row would.
func TestHistogramSetObserveSet(t *testing.T) {
	s := stats.NewBucketHistogramSet([]float64{1, 10}, "a", "b")
	a, b := s.Histogram(0), s.Histogram(1)
	s.ObserveSet([]float64{0.5, 20})
	s.ObserveSet([]float64{5, 30})
	if a.Count() != 2 || a.Max() != 5 || b.Quantile(0) != 20 {
		t.Fatalf("a: count %d max %v; b: min %v", a.Count(), a.Max(), b.Quantile(0))
	}
	if got := a.Snapshot().Counts; got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("a counts %v", got)
	}
	if got := b.Snapshot().Counts; got[2] != 2 {
		t.Fatalf("b counts %v", got)
	}
	rows := stats.NewBucketHistogramSet([]float64{1, 10}, "a", "b")
	rows.ObserveSet([]float64{0.5, 20, 5, 30})
	for i := 0; i < 2; i++ {
		if got, want := rows.Histogram(i).Snapshot(), s.Histogram(i).Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("member %d after one two-row call %+v, after two calls %+v", i, got, want)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() { s.ObserveSet([]float64{3, 4}) })
	if allocs > 0 {
		t.Fatalf("ObserveSet allocated %.2f objects per call", allocs)
	}
}

// sameSnapshot compares two histogram snapshots bit for bit (NaN sums
// included).
func sameSnapshot(a, b stats.BucketSnapshot) bool {
	bits := math.Float64bits
	return a.Name == b.Name && slices.Equal(a.Bounds, b.Bounds) && slices.Equal(a.Counts, b.Counts) &&
		a.Total == b.Total && bits(a.Sum) == bits(b.Sum) && bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max)
}

// checkObserveSet feeds rows of values to a set in ObserveSet calls of
// several rows each, and each member's column to a lone histogram one
// Observe at a time; every member must end bit-identical to its lone twin.
func checkObserveSet(t *testing.T, bs []float64, members int, vs []float64, split []int) {
	t.Helper()
	names := make([]string, members)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	set := stats.NewBucketHistogramSet(bs, names...)
	lone := make([]*stats.BucketHistogram, members)
	for i := range lone {
		lone[i] = stats.NewBucketHistogram(names[i], bs)
	}
	rows := vs[:len(vs)/members*members]
	for i, v := range rows {
		lone[i%members].Observe(v)
	}
	for len(vs) > 0 { // the trailing partial row, if any, is ignored
		n := len(vs)
		if len(split) > 0 {
			n = min(n, split[0]*members)
			split = split[1:]
		}
		set.ObserveSet(vs[:n])
		vs = vs[n:]
	}
	for i := range lone {
		if got, want := set.Histogram(i).Snapshot(), lone[i].Snapshot(); !sameSnapshot(got, want) {
			t.Fatalf("bounds %v, %d members, rows %v: member %d %+v, per-value Observe %+v", bs, members, rows, i, got, want)
		}
	}
}

// FuzzObserveSetMatchesObserve: ObserveSet's column fold (a run of equal
// values down a member costs one bucket lookup) leaves every member
// exactly as per-value Observe does, on rows full of repeats, zeros of
// both signs, values on and next to bucket bounds, infinities and NaN.
// Each input byte picks a value from that palette (or repeats the last
// value of its column); the bytes past the values split the rows into
// ObserveSet calls.
func FuzzObserveSetMatchesObserve(f *testing.F) {
	f.Add(uint8(6), []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 3, 4, 5, 6, 7}, []byte{1})
	f.Add(uint8(2), []byte{9, 9, 9, 10, 10, 10, 11, 12, 13, 9}, []byte{})
	f.Add(uint8(1), []byte{1, 2, 1, 2, 3, 3, 3, 14, 14, 15}, []byte{2, 1})
	f.Add(uint8(3), []byte{16, 16, 16, 17, 17, 17, 18, 19, 20, 21, 22}, []byte{3})
	f.Fuzz(func(t *testing.T, members uint8, picks, split []byte) {
		bs := stats.ExpBuckets(1, math.Sqrt2, 60) // the prov stage buckets
		m := int(members%6) + 1
		if len(picks) > 4096 {
			picks = picks[:4096]
		}
		vs := make([]float64, len(picks))
		for i, p := range picks {
			b := bs[int(p)%len(bs)]
			switch p % 24 {
			case 0:
				vs[i] = 0
			case 1:
				vs[i] = math.Copysign(0, -1)
			case 2, 3, 4, 5: // repeat the value above in this column
				if i >= m {
					vs[i] = vs[i-m]
				} else {
					vs[i] = b
				}
			case 6, 7, 8:
				vs[i] = b // on a bound
			case 9:
				vs[i] = math.Nextafter(b, math.Inf(1))
			case 10:
				vs[i] = math.Nextafter(b, 0)
			case 11:
				vs[i] = math.Inf(1)
			case 12:
				vs[i] = -b
			case 13:
				vs[i] = math.NaN()
			case 14:
				vs[i] = bs[len(bs)-1] * 2 // overflow bucket
			default:
				vs[i] = float64(p) / 4
			}
		}
		var sp []int
		for _, s := range split {
			sp = append(sp, int(s%8)+1)
		}
		checkObserveSet(t, bs, m, vs, sp)
	})
}
