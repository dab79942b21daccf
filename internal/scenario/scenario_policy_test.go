package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rocc/internal/core"
)

func minimalSpec(policy string, batch int) Spec {
	return Spec{
		Arch: "now", Nodes: 2, AppProcs: 1,
		SamplingPeriod: 8000, Duration: 1e6,
		Policy: policy, BatchSize: batch,
	}
}

// Policy specs survive the Spec -> Config -> FromConfig -> Save -> Load
// round trip: every built-in strategy writes its -policy spec and no
// batch_size, and the reloaded spec rebuilds the same strategy (distributed
// workers must reconstruct it exactly). Older files, which carry the batch
// in batch_size, convert to the spec form on the way through.
func TestSpecPolicyRoundTrip(t *testing.T) {
	cases := []struct {
		policy     string
		batch      int
		wantPolicy string
	}{
		{"cf", 0, "cf"},
		{"cf", 1, "cf"},
		{"bf", 7, "bf:7"},
		{"bf:9", 4, "bf:9"},
		{"bf:16", 0, "bf:16"},
		{"abf", 0, "abf"},
		{"abf", 1, "abf"},
		{"abf:2", 0, "abf:2"},
	}
	for _, c := range cases {
		cfg, err := minimalSpec(c.policy, c.batch).Config()
		if err != nil {
			t.Errorf("policy %q: %v", c.policy, err)
			continue
		}
		var buf bytes.Buffer
		if err := Save(&buf, FromConfig(cfg)); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), "batch_size") {
			t.Errorf("policy %q: saved spec still writes batch_size:\n%s", c.policy, buf.String())
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("policy %q: %v", c.policy, err)
		}
		if back.Policy != c.wantPolicy {
			t.Errorf("policy %q round-tripped to %q, want %q", c.policy, back.Policy, c.wantPolicy)
		}
		cfg2, err := back.Config()
		if err != nil {
			t.Fatalf("policy %q: reloaded spec: %v", c.policy, err)
		}
		if got := cfg2.Strategy.String(); got != c.wantPolicy {
			t.Errorf("policy %q: reloaded strategy %q, want %q", c.policy, got, c.wantPolicy)
		}
	}
}

// An adaptive spec materializes the controller strategy; its String is
// the spec, so a re-parse reconstructs it bit for bit.
func TestSpecAdaptiveBuildsStrategy(t *testing.T) {
	cfg, err := minimalSpec("abf:1.5", 0).Config()
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Strategy.String(); got != "abf:1.5" {
		t.Fatalf("strategy renders %q, want abf:1.5", got)
	}
}

// Scenario JSON decodes to one strategy: an explicit bf:<n> batch wins
// over batch_size, an older file's bare "bf" takes its batch from
// batch_size, and batch_size is ignored by cf and abf. A row with a
// sameAs spec must also run to the Result that spec runs to.
func TestSpecBatchOverride(t *testing.T) {
	cases := []struct {
		json   string
		want   string
		sameAs string
	}{
		{`{"policy":"bf:9","batch_size":4}`, "bf:9", ""},
		{`{"policy":"bf","batch_size":7}`, "bf:7", ""},
		{`{"policy":"bf","batch_size":16}`, "bf:16", "bf:16"},
		{`{"policy":"cf","batch_size":1}`, "cf", "cf"},
		{`{"policy":"abf","batch_size":1}`, "abf", "abf"},
	}
	for _, c := range cases {
		cfg, err := decodeMinimal(c.json)
		if err != nil {
			t.Errorf("%s: %v", c.json, err)
			continue
		}
		if got := cfg.Strategy.String(); got != c.want {
			t.Errorf("%s decoded to %q, want %q", c.json, got, c.want)
		}
		if c.sameAs == "" {
			continue
		}
		ref, err := minimalSpec(c.sameAs, 0).Config()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := runJSON(t, cfg), runJSON(t, ref); a != b {
			t.Errorf("%s and %q run to different Results:\n%s\n%s", c.json, c.sameAs, a, b)
		}
	}
}

// A malformed policy is rejected with an error, including an older
// file's bare "bf" without a positive batch_size.
func TestSpecRejectsMalformedPolicy(t *testing.T) {
	cases := []struct {
		json string
		want string
	}{
		{`{"policy":"bf:0"}`, "batch size must be an integer >= 1"},
		{`{"policy":"bf"}`, "needs a batch size"},
		{`{"policy":"bf","batch_size":0}`, "needs a batch size"},
		{`{"policy":"bf","batch_size":-3}`, "needs a batch size"},
	}
	for _, c := range cases {
		_, err := decodeMinimal(c.json)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want it to mention %q", c.json, err, c.want)
		}
	}
}

// decodeMinimal loads the policy fields in policyJSON over minimalSpec's
// scenario and materializes the result.
func decodeMinimal(policyJSON string) (core.Config, error) {
	base, err := json.Marshal(minimalSpec("", 0))
	if err != nil {
		return core.Config{}, err
	}
	text := strings.TrimSuffix(string(base), "}") + "," + strings.TrimPrefix(policyJSON, "{")
	spec, err := Load(strings.NewReader(text))
	if err != nil {
		return core.Config{}, err
	}
	return spec.Config()
}

// runJSON runs cfg and returns its Result as JSON.
func runJSON(t *testing.T, cfg core.Config) string {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(m.Run())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
