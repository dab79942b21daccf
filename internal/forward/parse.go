package forward

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePolicy parses a legacy forwarding-policy name ("cf" or "bf", any
// case). It is the inverse of Policy.String up to case.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "cf":
		return CF, nil
	case "bf":
		return BF, nil
	}
	return CF, fmt.Errorf("forward: unknown policy %q (cf, bf)", s)
}

// ParseConfig parses a forwarding-configuration name ("direct" or
// "tree", any case). It is the inverse of Config.String up to case.
func ParseConfig(s string) (Config, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "direct":
		return Direct, nil
	case "tree":
		return Tree, nil
	}
	return Direct, fmt.Errorf("forward: unknown forwarding config %q (direct, tree)", s)
}

// StrategySpec is the parsed form of a -policy flag value. The grammar is
//
//	cf              collect-and-forward
//	bf              batch-and-forward at the tool's default batch size
//	bf:<n>          batch-and-forward at batch size n >= 1
//	abf             adaptive batch-and-forward, auto latency budget
//	abf:<ms>        adaptive batch-and-forward, explicit budget in ms
//
// A zero StrategySpec means "not specified" (Policy CF with Batch 0 is
// impossible to parse: bare "cf" yields Batch 1).
type StrategySpec struct {
	Policy   Policy  // CF or BF; BF also covers the adaptive variant
	Adaptive bool    // true for abf specs
	Batch    int     // fixed batch size; 0 after bare "bf" (tool default)
	TargetMS float64 // adaptive latency budget in ms; 0 = auto-derive
}

// ParseStrategySpec parses a -policy spec string. Malformed specs —
// unknown kinds, bf:0, abf:0, negative or non-finite values, trailing
// garbage — are rejected here, at flag-parse time, with descriptive
// errors.
func ParseStrategySpec(s string) (StrategySpec, error) {
	kind, arg, hasArg := strings.Cut(strings.TrimSpace(s), ":")
	switch strings.ToLower(kind) {
	case "cf":
		if hasArg {
			return StrategySpec{}, fmt.Errorf("forward: policy spec %q: cf takes no argument", s)
		}
		return StrategySpec{Policy: CF, Batch: 1}, nil
	case "bf":
		spec := StrategySpec{Policy: BF}
		if hasArg {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 {
				return StrategySpec{}, fmt.Errorf("forward: policy spec %q: batch size must be an integer >= 1", s)
			}
			spec.Batch = n
		}
		return spec, nil
	case "abf":
		spec := StrategySpec{Policy: BF, Adaptive: true}
		if hasArg {
			// !(ms > 0) also rejects NaN; the budget is used in
			// microseconds, so it must stay finite after scaling.
			ms, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(ms > 0) || !finite(ms*1000) {
				return StrategySpec{}, fmt.Errorf("forward: policy spec %q: latency budget must be a positive number of ms", s)
			}
			spec.TargetMS = ms
		}
		return spec, nil
	}
	return StrategySpec{}, fmt.Errorf("forward: unknown policy spec %q (cf, bf[:<n>], abf[:<ms>])", s)
}

// String renders the spec back in -policy form; it round-trips through
// ParseStrategySpec.
func (s StrategySpec) String() string {
	switch {
	case s.Adaptive && s.TargetMS > 0:
		return fmt.Sprintf("abf:%g", s.TargetMS)
	case s.Adaptive:
		return "abf"
	case s.Policy == CF:
		return "cf"
	case s.Batch > 0:
		return fmt.Sprintf("bf:%d", s.Batch)
	default:
		return "bf"
	}
}

// NewStrategy builds the Strategy the spec denotes. defaultBatch supplies
// the tool's batch default for a bare "bf" spec.
func (s StrategySpec) NewStrategy(defaultBatch int) Strategy {
	if s.Adaptive {
		return NewAdaptiveBF(ControllerConfig{TargetLatencyUS: s.TargetMS * 1000})
	}
	if s.Policy == CF {
		return NewCF()
	}
	b := s.Batch
	if b == 0 {
		b = defaultBatch
	}
	return NewFixedBF(b)
}
