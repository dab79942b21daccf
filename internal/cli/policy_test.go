package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func newPolicyFS(defaultBatch int) (*flag.FlagSet, *PolicyValue) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, Policy(fs, defaultBatch)
}

func TestPolicyFlagParses(t *testing.T) {
	cases := []struct{ arg, want string }{
		{"cf", "cf"},
		{"bf:16", "bf:16"},
		{"abf", "abf"},
		{"abf:2.5", "abf:2.5"},
	}
	for _, c := range cases {
		fs, v := newPolicyFS(0)
		if err := fs.Parse([]string{"-policy", c.arg}); err != nil {
			t.Errorf("-policy %s: %v", c.arg, err)
			continue
		}
		if v.Strategy() == nil {
			t.Errorf("-policy %s: no strategy", c.arg)
			continue
		}
		if got := v.Strategy().String(); got != c.want {
			t.Errorf("-policy %s: strategy %q, want %q", c.arg, got, c.want)
		}
	}
}

func TestPolicyFlagNotGiven(t *testing.T) {
	fs, v := newPolicyFS(32)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if v.Strategy() != nil {
		t.Fatalf("strategy %q without the flag, want nil", v.Strategy())
	}
}

// Malformed specs are usage errors at flag-parse time, before any run
// starts, with the parser's descriptive message. A bare bf is one when
// the tool has no batch default.
func TestPolicyFlagRejectsMalformed(t *testing.T) {
	cases := []struct{ arg, wantSub string }{
		{"bf:0", "batch size must be an integer >= 1"},
		{"bf:-1", "batch size must be an integer >= 1"},
		{"bf", "needs a batch size"},
		{"abf:-1", "latency budget must be a positive number"},
		{"abf:0", "latency budget must be a positive number"},
		{"cf:2", "cf takes no argument"},
		{"zz", "unknown policy spec"},
	}
	for _, c := range cases {
		fs, _ := newPolicyFS(0)
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
		fs, v := newPolicyFS(32)
		if err := fs.Parse([]string{"-policy", c.arg}); err != nil {
			t.Fatalf("-policy %s: %v", c.arg, err)
		}
		if got := v.Strategy().String(); got != c.want {
			t.Errorf("-policy %s: strategy %q, want %q", c.arg, got, c.want)
		}
	}
}

func TestPolicyFlagStringRendersSpec(t *testing.T) {
	fs, v := newPolicyFS(0)
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
