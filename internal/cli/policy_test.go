package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"rocc/internal/forward"
)

func newPolicyFS() (*flag.FlagSet, *PolicyValue) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, Policy(fs)
}

func TestPolicyFlagParses(t *testing.T) {
	cases := []struct {
		arg  string
		want forward.StrategySpec
	}{
		{"cf", forward.StrategySpec{Policy: forward.CF, Batch: 1}},
		{"bf", forward.StrategySpec{Policy: forward.BF}},
		{"bf:16", forward.StrategySpec{Policy: forward.BF, Batch: 16}},
		{"abf", forward.StrategySpec{Policy: forward.BF, Adaptive: true}},
		{"abf:2.5", forward.StrategySpec{Policy: forward.BF, Adaptive: true, TargetMS: 2.5}},
	}
	for _, c := range cases {
		fs, v := newPolicyFS()
		if err := fs.Parse([]string{"-policy", c.arg}); err != nil {
			t.Errorf("-policy %s: %v", c.arg, err)
			continue
		}
		if !v.Given() {
			t.Errorf("-policy %s: Given() false", c.arg)
		}
		if v.Spec() != c.want {
			t.Errorf("-policy %s: spec %+v, want %+v", c.arg, v.Spec(), c.want)
		}
	}
}

func TestPolicyFlagNotGiven(t *testing.T) {
	fs, v := newPolicyFS()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if v.Given() {
		t.Fatal("Given() true without the flag")
	}
	// Without the flag the tool runs CF, whatever its batch default.
	if got := v.Strategy(32).String(); got != "cf" {
		t.Fatalf("Strategy without flag = %q, want cf", got)
	}
}

// Malformed specs are usage errors at flag-parse time, before any run
// starts, with the parser's descriptive message.
func TestPolicyFlagRejectsMalformed(t *testing.T) {
	cases := []struct{ arg, wantSub string }{
		{"bf:0", "batch size must be an integer >= 1"},
		{"bf:-1", "batch size must be an integer >= 1"},
		{"abf:-1", "latency budget must be a positive number"},
		{"abf:0", "latency budget must be a positive number"},
		{"cf:2", "cf takes no argument"},
		{"zz", "unknown policy spec"},
	}
	for _, c := range cases {
		fs, _ := newPolicyFS()
		err := fs.Parse([]string{"-policy", c.arg})
		if err == nil {
			t.Errorf("-policy %s: expected parse error", c.arg)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("-policy %s: error %q, want substring %q", c.arg, err, c.wantSub)
		}
	}
}

func TestPolicyStrategy(t *testing.T) {
	cases := []struct{ arg, want string }{
		{"cf", "cf"},
		{"bf:16", "bf:16"},
		{"bf", "bf:32"}, // bare bf takes the tool's batch default
		{"abf", "abf"},
		{"abf:1.5", "abf:1.5"},
	}
	for _, c := range cases {
		fs, v := newPolicyFS()
		if err := fs.Parse([]string{"-policy", c.arg}); err != nil {
			t.Fatalf("-policy %s: %v", c.arg, err)
		}
		if got := v.Strategy(32).String(); got != c.want {
			t.Errorf("-policy %s: strategy %q, want %q", c.arg, got, c.want)
		}
	}
}

func TestPolicyFlagStringRendersSpec(t *testing.T) {
	fs, v := newPolicyFS()
	if v.String() != "" {
		t.Fatalf("zero value String %q", v.String())
	}
	if err := fs.Parse([]string{"-policy", "BF:8"}); err != nil {
		t.Fatal(err)
	}
	if v.String() != "bf:8" {
		t.Fatalf("String %q, want bf:8", v.String())
	}
}
