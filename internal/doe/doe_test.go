package doe

import (
	"math"
	"testing"
	"testing/quick"

	"rocc/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Jain's classic 2^2 memory-cache example (Art of Computer Systems
// Performance Analysis §17): responses 15, 45, 25, 75 give effects
// q0=40, qA=20, qB=10, qAB=5 and variation split 76.2% / 19.0% / 4.8%.
func TestAnalyze2KRJainExample(t *testing.T) {
	responses := [][]float64{{15}, {45}, {25}, {75}}
	an, err := Analyze2KR([]string{"memory", "cache"}, responses)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(an.Mean, 40, 1e-12) {
		t.Fatalf("mean %v", an.Mean)
	}
	a, _ := an.EffectByTerm("A")
	b, _ := an.EffectByTerm("B")
	ab, _ := an.EffectByTerm("AB")
	if !almost(a.Estimate, 20, 1e-12) || !almost(b.Estimate, 10, 1e-12) || !almost(ab.Estimate, 5, 1e-12) {
		t.Fatalf("effects %v %v %v", a.Estimate, b.Estimate, ab.Estimate)
	}
	if !almost(a.Fraction, 1600.0/2100, 1e-12) {
		t.Fatalf("A fraction %v", a.Fraction)
	}
	if !almost(b.Fraction, 400.0/2100, 1e-12) || !almost(ab.Fraction, 100.0/2100, 1e-12) {
		t.Fatal("B/AB fractions")
	}
	if an.ErrorFraction != 0 {
		t.Fatal("no replication, error fraction must be 0")
	}
	if !almost(an.FractionSum(), 1, 1e-12) {
		t.Fatalf("fractions sum to %v", an.FractionSum())
	}
	// Sorted descending.
	if an.Effects[0].Term != "A" || an.Effects[2].Term != "AB" {
		t.Fatalf("sort order %v", an.Effects)
	}
}

// Jain §18 adds replications: 2^2 design with r=3. Check SSE handling on
// a constructed example with within-run noise.
func TestAnalyze2KRWithReplications(t *testing.T) {
	responses := [][]float64{
		{14, 16, 15},
		{44, 46, 45},
		{24, 26, 25},
		{74, 76, 75},
	}
	an, err := Analyze2KR([]string{"A", "B"}, responses)
	if err != nil {
		t.Fatal(err)
	}
	// Same means as the Jain example; SSE = 4 runs * (1+0+1) = 8.
	if !almost(an.SSE, 8, 1e-9) {
		t.Fatalf("SSE %v", an.SSE)
	}
	// SS terms now scaled by r=3: SSA = 4*3*400 = 4800.
	a, _ := an.EffectByTerm("A")
	if !almost(a.SS, 4800, 1e-9) {
		t.Fatalf("SSA %v", a.SS)
	}
	if !almost(an.SST, 4800+1200+300+8, 1e-9) {
		t.Fatalf("SST %v", an.SST)
	}
	if !almost(an.FractionSum(), 1, 1e-12) {
		t.Fatal("fractions")
	}
	if an.Replications != 3 {
		t.Fatal("replication count")
	}
}

func TestAnalyze2KRThreeFactors(t *testing.T) {
	// Pure single-factor response: y = 10*C level. Only C explains
	// variation.
	responses := make([][]float64, 8)
	for i := range responses {
		level := -1.0
		if i>>2&1 == 1 {
			level = 1
		}
		responses[i] = []float64{10 * level}
	}
	an, err := Analyze2KR([]string{"A", "B", "C"}, responses)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := an.EffectByTerm("C")
	if !ok || !almost(c.Fraction, 1, 1e-12) {
		t.Fatalf("C should explain all variation: %+v", an.Effects)
	}
	if an.Effects[0].Term != "C" {
		t.Fatal("C should rank first")
	}
	if len(an.Effects) != 7 {
		t.Fatalf("expected 7 terms, got %d", len(an.Effects))
	}
	top := an.TopEffects(3)
	if len(top) != 3 || top[0].Term != "C" {
		t.Fatal("TopEffects")
	}
	if got := an.TopEffects(100); len(got) != 7 {
		t.Fatal("TopEffects clamp")
	}
}

func TestAnalyze2KRErrors(t *testing.T) {
	if _, err := Analyze2KR(nil, nil); err == nil {
		t.Fatal("no factors")
	}
	if _, err := Analyze2KR([]string{"A"}, [][]float64{{1}}); err == nil {
		t.Fatal("wrong row count")
	}
	if _, err := Analyze2KR([]string{"A"}, [][]float64{{1}, {}}); err == nil {
		t.Fatal("empty row")
	}
	if _, err := Analyze2KR([]string{"A"}, [][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged rows")
	}
	if _, ok := (Analysis{}).EffectByTerm("Z"); ok {
		t.Fatal("missing term should report false")
	}
}

// Property: fractions always sum to 1 (within tolerance) and lie in [0,1].
func TestQuickAllocationFractions(t *testing.T) {
	f := func(seed uint64, kSeed uint8, rSeed uint8) bool {
		k := int(kSeed)%3 + 1
		r := int(rSeed)%4 + 1
		rnd := rng.New(seed)
		rows := 1 << k
		responses := make([][]float64, rows)
		for i := range responses {
			row := make([]float64, r)
			for j := range row {
				row[j] = rnd.Normal(100, 25)
			}
			responses[i] = row
		}
		names := []string{"A", "B", "C", "D"}[:k]
		an, err := Analyze2KR(names, responses)
		if err != nil {
			return false
		}
		if !almost(an.FractionSum(), 1, 1e-9) {
			return false
		}
		for _, e := range an.Effects {
			if e.Fraction < -1e-12 || e.Fraction > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
