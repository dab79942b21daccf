package core

import (
	"testing"
	"testing/quick"

	"rocc/internal/forward"
)

// Property: across random configurations the model never panics and its
// metrics satisfy the structural invariants — utilizations bounded,
// received <= generated, per-node occupancy within capacity.
func TestQuickModelInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-model property test skipped in -short")
	}
	f := func(seed uint64, nodes8, procs4, pds3, sp16, batch8, archSel, flags uint8) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Duration = 3e5 // 0.3 s keeps each case fast
		cfg.Nodes = int(nodes8)%12 + 1
		cfg.AppProcs = int(procs4)%4 + 1
		cfg.Pds = int(pds3)%3 + 1
		cfg.SamplingPeriod = float64(int(sp16)%64+1) * 1000
		switch archSel % 3 {
		case 0:
			cfg.Arch = NOW
		case 1:
			cfg.Arch = SMP
			cfg.AppProcs = cfg.Nodes // paper's SMP setup
			if cfg.Pds > cfg.AppProcs {
				cfg.Pds = cfg.AppProcs
			}
		case 2:
			cfg.Arch = MPP
			if flags&1 == 1 {
				cfg.Forwarding = forward.Tree
			}
		}
		if batch := int(batch8) % 65; batch > 1 {
			cfg.Strategy = forward.NewFixedBF(batch)
		}
		if flags&2 == 2 {
			cfg.BarrierPeriod = 20000
		}
		if flags&4 == 4 {
			cfg.EventTrace = true
		}
		if flags&8 == 8 {
			cfg.Detailed.IOProb = 0.1
		}
		if flags&16 == 16 {
			cfg.Warmup = 1e5
		}

		m, err := New(cfg)
		if err != nil {
			return false
		}
		res := m.Run()

		if res.SamplesReceived > res.SamplesGenerated+res.WarmupCarryover {
			return false
		}
		// With warmup, in-progress slices at the reset boundary are charged
		// to the measured window (see docs/MODEL.md), allowing up to one
		// quantum of occupancy overshoot per core.
		maxUtil := 100.001
		if cfg.Warmup > 0 {
			maxUtil += cfg.Quantum / cfg.Duration * 100
		}
		for _, u := range []float64{
			res.PdCPUUtilPct, res.AppCPUUtilPct,
			res.MainCPUUtilPct, res.PvmCPUUtilPct, res.OtherCPUUtilPct,
		} {
			if u < 0 || u > maxUtil {
				return false
			}
		}
		// Outside SMP, ISCPUUtilPct sums daemon utilization on the app
		// nodes with main's utilization of its own host, so its bound is
		// two full CPUs; on SMP it shares the one processor pool.
		maxIS := 2 * maxUtil
		if cfg.Arch == SMP {
			maxIS = maxUtil
		}
		if res.ISCPUUtilPct < 0 || res.ISCPUUtilPct > maxIS {
			return false
		}
		if res.MonitoringLatencySec < 0 || res.ThroughputPerSec < 0 {
			return false
		}
		if res.MonitoringLatencyMaxSec < res.MonitoringLatencySec-1e-12 &&
			res.SamplesReceived > 0 {
			return false // max below mean is impossible
		}
		// Node CPUs cannot be busier than elapsed capacity.
		measured := cfg.Duration
		for _, cpu := range m.NodeCPUs {
			cores := 1.0
			if cfg.Arch == SMP {
				cores = float64(cfg.Nodes)
			}
			if cpu.BusyTotal() > cores*(measured+cfg.Warmup)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
