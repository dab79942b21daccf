package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rocc/internal/core"
)

// FuzzLoad feeds malformed, truncated, and adversarial grid/scenario
// files through the full load path — JSON decoding plus Config
// materialization and distribution construction. The property: Load and
// Spec.Config must error on bad input, never panic. This complements the
// round-trip property test, which only exercises well-formed specs.
func FuzzLoad(f *testing.F) {
	// A well-formed spec, its truncations, and hand-picked corruptions.
	var valid bytes.Buffer
	if err := Save(&valid, FromConfig(core.DefaultConfig())); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.String())
	v := valid.String()
	for _, cut := range []int{1, len(v) / 4, len(v) / 2, len(v) - 2} {
		f.Add(v[:cut])
	}
	f.Add("")
	f.Add("{")
	f.Add("null")
	f.Add("[]")
	f.Add(`{"arch":"now"`)
	f.Add(`{"arch":5}`)
	f.Add(`{"arch":"now","nodes":"eight"}`)
	f.Add(`{"unknown_field":1}`)
	f.Add(`{"arch":"now","workload":{"app_cpu":{"type":"weibull","shape":-1}}}`)
	f.Add(`{"arch":"now","workload":{"app_cpu":{"type":"unknowndist"}}}`)
	f.Add(`{"arch":"now","duration_us":-1}`)
	f.Add(`{"arch":"now","sampling_period_us":1e309}`)
	f.Add("{\"arch\":\"now\"}{\"arch\":\"smp\"}")
	f.Add("\x00\x01\x02")

	f.Fuzz(func(t *testing.T, data string) {
		s, err := Load(strings.NewReader(data))
		if err != nil {
			return // malformed input must error — and it did
		}
		// A spec that decoded cleanly may still be semantically invalid;
		// materialization must reject it with an error, never a panic.
		_, _ = s.Config()
		for _, d := range []DistSpec{
			s.Workload.AppCPU, s.Workload.AppNet, s.Workload.PvmCPU,
			s.Workload.PvmInterarrival, s.Workload.MainCPU,
		} {
			_, _ = d.Dist()
		}
	})
}

// Truncated files must fail loudly: every strict prefix of a valid spec
// (except trailing-whitespace-only cuts) is a decode error.
func TestLoadTruncated(t *testing.T) {
	var valid bytes.Buffer
	if err := Save(&valid, FromConfig(core.DefaultConfig())); err != nil {
		t.Fatal(err)
	}
	v := strings.TrimRight(valid.String(), "\n")
	for _, cut := range []int{0, 1, len(v) / 3, len(v) / 2, len(v) - 1} {
		if _, err := Load(strings.NewReader(v[:cut])); err == nil {
			t.Errorf("Load of %d/%d-byte truncation succeeded, want error", cut, len(v))
		}
	}
}

// FuzzScenario drives bounded specs through Spec.Config and
// core.Simulate: every architecture, policy and forwarding mode, up to 16
// nodes and 4 processes per node, and pipe, quantum, warmup, barrier and
// flush values of either sign, over a 20 ms run. The property: a spec
// either fails Spec.Config (whose Validate rejects it with an error), or
// it simulates twice to byte-identical JSON — the determinism contract,
// across the storage core.Simulate recycles from one run to the next.
func FuzzScenario(f *testing.F) {
	// arch, nodes, procs, policy, tree, pipe, quantum/10us, warmup/100us,
	// barrier/10us, flush/10us, background, seed.
	f.Add(uint8(0), uint8(4), uint8(1), uint8(0), false, int16(256), int16(1000), int8(0), int16(0), int16(0), true, uint64(1))
	f.Add(uint8(1), uint8(8), uint8(4), uint8(1), false, int16(8), int16(1000), int8(20), int16(500), int16(100), false, uint64(7))
	f.Add(uint8(2), uint8(16), uint8(2), uint8(3), true, int16(4), int16(100), int8(10), int16(0), int16(50), true, uint64(3))
	f.Add(uint8(2), uint8(5), uint8(1), uint8(4), true, int16(1), int16(1), int8(0), int16(1), int16(1), false, uint64(0))
	f.Add(uint8(0), uint8(2), uint8(1), uint8(2), false, int16(-1), int16(-5), int8(-1), int16(-1), int16(-9), true, uint64(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(5), true, int16(0), int16(0), int8(0), int16(0), int16(0), true, uint64(1))

	archs := []string{"now", "smp", "mpp"}
	policies := []string{"cf", "bf:4", "bf:32", "abf", "abf:5", "bf"} // bare "bf" lacks its batch
	f.Fuzz(func(t *testing.T, arch, nodes, procs, policy uint8, tree bool,
		pipe, quantum int16, warmup int8, barrier, flush int16, background bool, seed uint64) {
		s := Spec{
			Arch:           archs[int(arch)%len(archs)],
			Nodes:          int(nodes % 17),
			AppProcs:       int(procs % 5),
			SamplingPeriod: 1000,
			Policy:         policies[int(policy)%len(policies)],
			Forwarding:     "direct",
			PipeCapacity:   int(pipe),
			Quantum:        10 * float64(quantum),
			Duration:       20000,
			Warmup:         100 * float64(warmup),
			BarrierPeriod:  10 * float64(barrier),
			FlushTimeout:   10 * float64(flush),
			Background:     &background,
			Seed:           seed,
		}
		if tree {
			s.Forwarding = "tree"
		}
		cfg, err := s.Config()
		if err != nil {
			return // invalid spec rejected with an error
		}
		var out [2][]byte
		for i := range out {
			res, err := core.Simulate(cfg)
			if err != nil {
				t.Fatalf("Simulate rejected a validated config: %v\n%+v", err, s)
			}
			if out[i], err = json.Marshal(res); err != nil {
				t.Fatalf("result does not encode: %v\n%+v", err, s)
			}
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Fatalf("same spec simulated to different results\n%+v\n%s\n%s", s, out[0], out[1])
		}
	})
}
