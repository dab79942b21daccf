package forward

import (
	"fmt"
	"strconv"
	"strings"
)

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

// ParseStrategy parses a -policy spec into the strategy it names. The
// grammar is
//
//	cf              collect-and-forward
//	bf              batch-and-forward at defaultBatch
//	bf:<n>          batch-and-forward at batch size n >= 1
//	abf             adaptive batch-and-forward, auto latency budget
//	abf:<ms>        adaptive batch-and-forward, explicit budget in ms
//
// Malformed specs — unknown kinds, bf:0, abf:0, negative or non-finite
// values, trailing garbage — are errors, and so is a bare "bf" when
// defaultBatch < 1. Every strategy it returns renders back as a spec
// (String) that parses to the same strategy.
func ParseStrategy(spec string, defaultBatch int) (Strategy, error) {
	kind, arg, hasArg := strings.Cut(strings.TrimSpace(spec), ":")
	switch strings.ToLower(kind) {
	case "cf":
		if hasArg {
			return nil, fmt.Errorf("forward: policy spec %q: cf takes no argument", spec)
		}
		return NewCF(), nil
	case "bf":
		if !hasArg {
			if defaultBatch < 1 {
				return nil, fmt.Errorf("forward: policy spec %q needs a batch size (bf:<n>)", spec)
			}
			return NewFixedBF(defaultBatch), nil
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("forward: policy spec %q: batch size must be an integer >= 1", spec)
		}
		return NewFixedBF(n), nil
	case "abf":
		var ms float64
		if hasArg {
			// !(ms > 0) also rejects NaN; the budget is used in
			// microseconds, so it must stay finite after scaling.
			var err error
			ms, err = strconv.ParseFloat(arg, 64)
			if err != nil || !(ms > 0) || !finite(ms*1000) {
				return nil, fmt.Errorf("forward: policy spec %q: latency budget must be a positive number of ms", spec)
			}
		}
		return NewAdaptiveBF(ControllerConfig{TargetLatencyUS: ms * 1000}), nil
	}
	return nil, fmt.Errorf("forward: unknown policy spec %q (cf, bf[:<n>], abf[:<ms>])", spec)
}
