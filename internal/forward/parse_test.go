package forward

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    Policy
		wantErr bool
	}{
		{"cf", CF, false},
		{"CF", CF, false},
		{" bf ", BF, false},
		{"Bf", BF, false},
		{"", CF, true},
		{"batch", CF, true},
		{"bf:16", CF, true}, // specs are ParseStrategySpec's job
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParsePolicy(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
		if err != nil && !strings.Contains(err.Error(), "unknown policy") {
			t.Errorf("ParsePolicy(%q) error %q not descriptive", c.in, err)
		}
	}
}

// ParsePolicy inverts Policy.String for both defined policies.
func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []Policy{CF, BF} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, err %v", p, got, err)
		}
	}
}

func TestParseConfig(t *testing.T) {
	cases := []struct {
		in      string
		want    Config
		wantErr bool
	}{
		{"direct", Direct, false},
		{"Direct", Direct, false},
		{"tree", Tree, false},
		{" TREE ", Tree, false},
		{"", Direct, true},
		{"ring", Direct, true},
	}
	for _, c := range cases {
		got, err := ParseConfig(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseConfig(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseConfig(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, cfg := range []Config{Direct, Tree} {
		got, err := ParseConfig(cfg.String())
		if err != nil || got != cfg {
			t.Errorf("round trip %v: got %v, err %v", cfg, got, err)
		}
	}
}

func TestParseStrategySpec(t *testing.T) {
	cases := []struct {
		in   string
		want StrategySpec
	}{
		{"cf", StrategySpec{Policy: CF, Batch: 1}},
		{"CF", StrategySpec{Policy: CF, Batch: 1}},
		{"bf", StrategySpec{Policy: BF}},
		{"bf:1", StrategySpec{Policy: BF, Batch: 1}},
		{"bf:32", StrategySpec{Policy: BF, Batch: 32}},
		{"abf", StrategySpec{Policy: BF, Adaptive: true}},
		{"abf:1.5", StrategySpec{Policy: BF, Adaptive: true, TargetMS: 1.5}},
		{"ABF:2", StrategySpec{Policy: BF, Adaptive: true, TargetMS: 2}},
		{" bf:8 ", StrategySpec{Policy: BF, Batch: 8}},
	}
	for _, c := range cases {
		got, err := ParseStrategySpec(c.in)
		if err != nil {
			t.Errorf("ParseStrategySpec(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseStrategySpec(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseStrategySpecRejectsMalformed(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"bf:0", "batch size must be an integer >= 1"},
		{"bf:-4", "batch size must be an integer >= 1"},
		{"bf:2.5", "batch size must be an integer >= 1"},
		{"bf:many", "batch size must be an integer >= 1"},
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
		_, err := ParseStrategySpec(c.in)
		if err == nil {
			t.Errorf("ParseStrategySpec(%q): expected error", c.in)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseStrategySpec(%q) error %q, want substring %q", c.in, err, c.wantSub)
		}
	}
}

// Property: every spec that parses round-trips through String, and every
// built-in strategy's String parses back to a spec that renders the same.
func TestStrategySpecStringRoundTrip(t *testing.T) {
	f := func(batch uint8, tenthsMS uint8, kind uint8) bool {
		var spec StrategySpec
		switch kind % 3 {
		case 0:
			spec = StrategySpec{Policy: CF, Batch: 1}
		case 1:
			spec = StrategySpec{Policy: BF, Batch: int(batch)} // 0 = bare bf
		default:
			spec = StrategySpec{Policy: BF, Adaptive: true,
				TargetMS: float64(tenthsMS) / 10} // 0 = auto budget
		}
		back, err := ParseStrategySpec(spec.String())
		return err == nil && back.String() == spec.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Built-in strategies render as parseable -policy specs, and NewStrategy
// materializes each spec into the strategy that renders it.
func TestNewStrategyRoundTrip(t *testing.T) {
	for _, in := range []string{"cf", "bf:1", "bf:32", "abf", "abf:1.5"} {
		spec, err := ParseStrategySpec(in)
		if err != nil {
			t.Fatalf("ParseStrategySpec(%q): %v", in, err)
		}
		s := spec.NewStrategy(0)
		if s.String() != in {
			t.Errorf("NewStrategy(%q).String() = %q", in, s.String())
		}
		if _, err := ParseStrategySpec(s.String()); err != nil {
			t.Errorf("strategy %q does not render a parseable spec: %v", in, err)
		}
	}
	// A bare "bf" takes the tool's default batch.
	spec, _ := ParseStrategySpec("bf")
	if got := spec.NewStrategy(32).String(); got != "bf:32" {
		t.Errorf("bare bf with default 32 = %q, want bf:32", got)
	}
}

// FuzzParseStrategySpec drives the -policy boundary with arbitrary input:
// a parse never panics, and an accepted spec round-trips through String
// to an equal spec whose strategy validates.
func FuzzParseStrategySpec(f *testing.F) {
	for _, seed := range []string{"abf:NaN", "bf:0", "cf", "bf", "bf:16", "abf", "abf:1.5", "ABF:2"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseStrategySpec(in)
		if err != nil {
			return
		}
		back, err := ParseStrategySpec(spec.String())
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose String %q does not parse: %v", in, spec, spec.String(), err)
		}
		if back != spec {
			t.Fatalf("%q parsed to %+v, but its String %q parses to %+v", in, spec, spec.String(), back)
		}
		if v, ok := spec.NewStrategy(8).(Validator); ok {
			if err := v.Validate(); err != nil {
				t.Fatalf("%q parsed to %+v, whose strategy is invalid: %v", in, spec, err)
			}
		}
	})
}
