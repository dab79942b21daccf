// Package doe implements the experiment-design machinery of Section 4:
// 2^k·r factorial designs with allocation of variation (the analysis the
// paper presents in Figures 16, 20, and 25 and Tables 7 and 8 to rank the
// importance of factors such as sampling period and forwarding policy).
// The paper calls this allocation "principal component analysis".
package doe

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Effect is one term of a 2^k factorial analysis: a single factor
// ("B"), an interaction ("AB"), or the mean term ("I").
type Effect struct {
	// Term is the conventional label: factor letters concatenated.
	Term string
	// Factors are the indices of the factors in the interaction.
	Factors []int
	// Estimate is the effect estimate q (half the change in response when
	// the term's sign flips from -1 to +1).
	Estimate float64
	// SS is the sum of squares attributed to the term.
	SS float64
	// Fraction is SS / SST: the portion of total variation explained.
	Fraction float64
}

// Analysis is the allocation of variation for a 2^k·r experiment.
type Analysis struct {
	FactorNames []string
	Effects     []Effect // all 2^k-1 non-mean terms, sorted by Fraction desc
	Mean        float64  // grand mean (the I term estimate)
	SST         float64  // total variation
	SSE         float64  // experimental-error sum of squares
	// ErrorFraction is SSE/SST, the paper's "Rest" wedge.
	ErrorFraction float64
	Replications  int
}

// termLabel builds the conventional letter label for a factor subset:
// factor 0 = "A", 1 = "B", ... The empty set is "I".
func termLabel(factors []int) string {
	if len(factors) == 0 {
		return "I"
	}
	var b strings.Builder
	for _, f := range factors {
		b.WriteByte(byte('A' + f))
	}
	return b.String()
}

// Analyze2KR performs the allocation of variation for a full-factorial
// 2^k design with r replications. responses must have exactly 2^k rows in
// standard order (in row i, factor j is at its high level iff bit j of i
// is set); each row holds the r replicate observations of that run (all
// rows must have the same positive length).
func Analyze2KR(factorNames []string, responses [][]float64) (Analysis, error) {
	k := len(factorNames)
	if k == 0 {
		return Analysis{}, errors.New("doe: need at least one factor")
	}
	if k > 16 {
		return Analysis{}, errors.New("doe: too many factors")
	}
	rows := 1 << k
	if len(responses) != rows {
		return Analysis{}, fmt.Errorf("doe: need %d response rows for %d factors, got %d", rows, k, len(responses))
	}
	r := len(responses[0])
	if r == 0 {
		return Analysis{}, errors.New("doe: empty response row")
	}
	for i, row := range responses {
		if len(row) != r {
			return Analysis{}, fmt.Errorf("doe: row %d has %d replications, want %d", i, len(row), r)
		}
	}

	// Run means.
	means := make([]float64, rows)
	for i, row := range responses {
		for _, v := range row {
			means[i] += v
		}
		means[i] /= float64(r)
	}

	// Effect estimate for every subset of factors: q_S = (1/2^k) * sum over
	// runs of (product of signs of S) * run mean. Subset S is encoded as a
	// bitmask; each factor contributes +1 at its high level and -1 at its
	// low level, so the product for run i is +1 iff the number of S-factors
	// at their low level, popcount(S) - popcount(i & S), is even.
	an := Analysis{FactorNames: factorNames, Replications: r}
	var ssEffects float64
	for mask := 0; mask < rows; mask++ {
		q := 0.0
		lowParity := popcount(mask)
		for i := 0; i < rows; i++ {
			if (lowParity-popcount(i&mask))%2 == 0 {
				q += means[i]
			} else {
				q -= means[i]
			}
		}
		q /= float64(rows)
		if mask == 0 {
			an.Mean = q
			continue
		}
		var factors []int
		for j := 0; j < k; j++ {
			if mask>>j&1 == 1 {
				factors = append(factors, j)
			}
		}
		ss := float64(rows) * float64(r) * q * q
		ssEffects += ss
		an.Effects = append(an.Effects, Effect{
			Term:     termLabel(factors),
			Factors:  factors,
			Estimate: q,
			SS:       ss,
		})
	}

	// Error sum of squares: within-run variation.
	for i, row := range responses {
		for _, v := range row {
			d := v - means[i]
			an.SSE += d * d
		}
	}
	an.SST = ssEffects + an.SSE
	if an.SST > 0 {
		for i := range an.Effects {
			an.Effects[i].Fraction = an.Effects[i].SS / an.SST
		}
		an.ErrorFraction = an.SSE / an.SST
	}
	sort.SliceStable(an.Effects, func(i, j int) bool {
		return an.Effects[i].Fraction > an.Effects[j].Fraction
	})
	return an, nil
}

// TopEffects returns the n largest effects (or all if fewer).
func (a Analysis) TopEffects(n int) []Effect {
	if n > len(a.Effects) {
		n = len(a.Effects)
	}
	return a.Effects[:n]
}

// EffectByTerm returns the effect with the given label, if present.
func (a Analysis) EffectByTerm(term string) (Effect, bool) {
	for _, e := range a.Effects {
		if e.Term == term {
			return e, true
		}
	}
	return Effect{}, false
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Sanity guard: variation fractions must sum to ~1 for a valid analysis.
// Exposed for tests and report generation.
func (a Analysis) FractionSum() float64 {
	s := a.ErrorFraction
	for _, e := range a.Effects {
		s += e.Fraction
	}
	return s
}
