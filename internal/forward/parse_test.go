package forward_test

import (
	"strings"
	"testing"
	"testing/quick"

	"rocc/internal/core"
	"rocc/internal/forward"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		in      string
		want    forward.Config
		wantErr bool
	}{
		{"direct", forward.Direct, false},
		{"Direct", forward.Direct, false},
		{"tree", forward.Tree, false},
		{" TREE ", forward.Tree, false},
		{"", forward.Direct, true},
		{"ring", forward.Direct, true},
	}
	for _, c := range cases {
		got, err := forward.ParseConfig(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseConfig(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseConfig(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, cfg := range []forward.Config{forward.Direct, forward.Tree} {
		got, err := forward.ParseConfig(cfg.String())
		if err != nil || got != cfg {
			t.Errorf("round trip %v: got %v, err %v", cfg, got, err)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	cases := []struct{ in, want string }{
		{"cf", "cf"},
		{"CF", "cf"},
		{"bf", "bf:32"}, // bare bf takes the default batch
		{"bf:1", "bf:1"},
		{"bf:32", "bf:32"},
		{"abf", "abf"},
		{"abf:1.5", "abf:1.5"},
		{"ABF:2", "abf:2"},
		{" bf:8 ", "bf:8"},
	}
	for _, c := range cases {
		got, err := forward.ParseStrategy(c.in, 32)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("ParseStrategy(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseStrategyRejectsMalformed(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"bf:0", "batch size must be an integer >= 1"},
		{"bf:-4", "batch size must be an integer >= 1"},
		{"bf:2.5", "batch size must be an integer >= 1"},
		{"bf:many", "batch size must be an integer >= 1"},
		{"bf", "needs a batch size"},
		{"abf:0", "latency budget must be a positive number"},
		{"abf:-1", "latency budget must be a positive number"},
		{"abf:soon", "latency budget must be a positive number"},
		{"abf:NaN", "latency budget must be a positive number"},
		{"abf:Inf", "latency budget must be a positive number"},
		{"abf:+Inf", "latency budget must be a positive number"},
		{"abf:1e306", "latency budget must be a positive number"},
		{"cf:1", "cf takes no argument"},
		{"", "unknown policy spec"},
		{"zz", "unknown policy spec"},
		{"bff:4", "unknown policy spec"},
	}
	for _, c := range cases {
		_, err := forward.ParseStrategy(c.in, 0)
		if err == nil {
			t.Errorf("ParseStrategy(%q): expected error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseStrategy(%q) error %q, want substring %q", c.in, err, c.wantSub)
		}
	}
}

// Built-in strategies render as -policy specs, and each constructor builds
// the strategy that its spec parses to.
func TestNewStrategyRoundTrip(t *testing.T) {
	cases := []struct {
		s    forward.Strategy
		spec string
	}{
		{forward.NewCF(), "cf"},
		{forward.NewFixedBF(1), "bf:1"},
		{forward.NewFixedBF(32), "bf:32"},
		{forward.NewAdaptiveBF(forward.ControllerConfig{}), "abf"},
		{forward.NewAdaptiveBF(forward.ControllerConfig{TargetLatencyUS: 1500}), "abf:1.5"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.spec {
			t.Errorf("strategy renders %q, want %q", got, c.spec)
		}
		parsed, err := forward.ParseStrategy(c.spec, 0)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", c.spec, err)
		}
		if parsed.String() != c.spec {
			t.Errorf("ParseStrategy(%q).String() = %q", c.spec, parsed.String())
		}
	}
	// A bare "bf" takes the tool's default batch.
	s, err := forward.ParseStrategy("bf", 32)
	if err != nil || s.String() != "bf:32" {
		t.Errorf("bare bf with default 32 = %v, %v; want bf:32", s, err)
	}
}

// Property: every built-in strategy renders as a -policy spec that parses
// back to a strategy rendering the same spec, whatever its parameters.
func TestStrategySpecStringRoundTrip(t *testing.T) {
	f := func(batch uint8, tenthsMS uint8, kind uint8) bool {
		var s forward.Strategy
		switch kind % 3 {
		case 0:
			s = forward.NewCF()
		case 1:
			s = forward.NewFixedBF(int(batch))
		default:
			s = forward.NewAdaptiveBF(forward.ControllerConfig{
				TargetLatencyUS: float64(tenthsMS) * 100}) // 0 = auto budget
		}
		back, err := forward.ParseStrategy(s.String(), 0)
		return err == nil && back.String() == s.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseStrategy drives the -policy boundary with arbitrary input: a
// parse never panics, a bare "bf" without a default batch is an error, and
// an accepted spec renders as a spec that parses back to the same
// strategy, in a configuration that validates.
func FuzzParseStrategy(f *testing.F) {
	for _, seed := range []string{"abf:NaN", "bf:0", "cf", "bf", "bf:16", "abf", "abf:1.5", "ABF:2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := forward.ParseStrategy(in, 8)
		if err != nil {
			return
		}
		if strings.EqualFold(strings.TrimSpace(in), "bf") {
			if _, err := forward.ParseStrategy(in, 0); err == nil {
				t.Fatalf("%q parsed without a default batch", in)
			}
		}
		back, err := forward.ParseStrategy(s.String(), 0)
		if err != nil {
			t.Fatalf("%q parsed to %q, which does not parse: %v", in, s, err)
		}
		if back.String() != s.String() {
			t.Fatalf("%q parsed to %q, but that parses to %q", in, s, back)
		}
		cfg := core.DefaultConfig()
		cfg.Strategy = s
		if _, err := cfg.Validate(); err != nil {
			t.Fatalf("%q parsed to %q, whose config is invalid: %v", in, s, err)
		}
	})
}
