package faults_test

import (
	"reflect"
	"testing"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/rng"
)

// shortCfg is the typical NOW configuration scaled down for test runs.
func shortCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = 5e6
	cfg.Background = false
	return cfg
}

func run(t *testing.T, cfg core.Config) core.Result {
	t.Helper()
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m.Run()
}

// TestInactivePlanMatchesBaseline is the byte-identity contract: building
// a model with a nil fault plan and with a zero (inactive) plan must
// produce bit-identical results — the fault layer adds no events and
// draws no random numbers unless it is active.
func TestInactivePlanMatchesBaseline(t *testing.T) {
	base := run(t, shortCfg())

	cfg := shortCfg()
	cfg.Faults = &faults.Plan{Seed: 99} // seeded but inactive
	withPlan := run(t, cfg)

	if !reflect.DeepEqual(base, withPlan) {
		t.Fatalf("inactive plan perturbed the baseline:\nbase=%+v\nplan=%+v", base, withPlan)
	}
	if base.SamplesReceived == 0 {
		t.Fatal("baseline run received no samples; scenario is vacuous")
	}
}

// TestSeededFaultReplayIsIdentical re-runs an all-faults-on scenario with
// the same pair of seeds and demands bit-identical results.
func TestSeededFaultReplayIsIdentical(t *testing.T) {
	cfg := shortCfg()
	cfg.Faults = &faults.Plan{
		Seed: 7, Loss: 0.05, Dup: 0.02, DelayProb: 0.1, AckLoss: 0.05,
		CrashMTBF: 2e6, SqueezeMTBF: 2e6,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}
	a := run(t, cfg)
	b := run(t, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seeds diverged:\na=%+v\nb=%+v", a, b)
	}
	if a.FaultLossInjected == 0 || a.Crashes == 0 || a.PipeSqueezes == 0 {
		t.Fatalf("fault scenario too quiet to be meaningful: %+v", a)
	}
}

// TestFaultSeedIndependentOfModelSeed checks the stream separation:
// changing only the fault seed leaves the generated workload identical
// (same samples generated), while the fault pattern changes.
func TestFaultSeedIndependentOfModelSeed(t *testing.T) {
	mk := func(faultSeed uint64) core.Result {
		cfg := shortCfg()
		cfg.Faults = &faults.Plan{Seed: faultSeed, Loss: 0.05}
		return run(t, cfg)
	}
	a, b := mk(1), mk(2)
	if a.SamplesGenerated != b.SamplesGenerated {
		t.Fatalf("fault seed change perturbed the workload: %d vs %d generated",
			a.SamplesGenerated, b.SamplesGenerated)
	}
	if a.FaultLossInjected == b.FaultLossInjected {
		t.Logf("note: different fault seeds produced equal loss counts (%d); legal but unusual",
			a.FaultLossInjected)
	}
}

// TestRetransmitRecoversUnderLoss is the survivability acceptance
// criterion: under 5% message loss, the ack/retransmission policy
// delivers at least 99% of generated samples to the main process, where
// the unprotected system loses roughly the injected fraction.
func TestRetransmitRecoversUnderLoss(t *testing.T) {
	mk := func(retransmit bool) core.Result {
		cfg := shortCfg()
		cfg.Duration = 20e6
		cfg.SamplingPeriod = 20000
		cfg.Faults = &faults.Plan{
			Seed: 3, Loss: 0.05,
			Resilience: faults.Resilience{Retransmit: retransmit},
		}
		return run(t, cfg)
	}

	unprotected := mk(false)
	if unprotected.SamplesLostForwarding == 0 {
		t.Fatal("no losses at 5%; scenario is vacuous")
	}
	lossyRatio := float64(unprotected.SamplesReceived) / float64(unprotected.SamplesGenerated)
	if lossyRatio > 0.99 {
		t.Fatalf("unprotected run delivered %.4f; loss too mild to test recovery", lossyRatio)
	}

	protected := mk(true)
	ratio := float64(protected.SamplesReceived) / float64(protected.SamplesGenerated)
	if ratio < 0.99 {
		t.Fatalf("retransmission delivered only %.4f of samples, want >= 0.99 "+
			"(retransmits=%d giveups=%d)", ratio, protected.Retransmits, protected.RetransmitGiveUps)
	}
	if protected.Retransmits == 0 || protected.RecoveredMessages == 0 {
		t.Fatalf("recovery did not engage: %+v", protected)
	}
	if ratio <= lossyRatio {
		t.Fatalf("retransmission (%.4f) did not improve on unprotected (%.4f)", ratio, lossyRatio)
	}
}

// TestDegradationReducesBlocking is the graceful-degradation acceptance
// criterion: in an overloaded configuration where the daemon cannot keep
// up and full pipes block the application (§4.3.3), adaptive sample
// thinning keeps application blocking time below the unprotected Block
// baseline, at the price of thinned samples.
func TestDegradationReducesBlocking(t *testing.T) {
	mk := func(degrade bool) core.Result {
		cfg := shortCfg()
		cfg.Duration = 5e6
		cfg.Nodes = 2
		cfg.SamplingPeriod = 100 // sampling faster than the daemon can forward
		cfg.PipeCapacity = 4
		// A communication-heavy application keeps the node CPU free, so
		// blocking comes from pipe overflow against the daemon's service
		// rate rather than from CPU contention.
		cfg.Workload = core.Workload{
			AppCPU:  rng.Constant{Value: 50},
			AppNet:  rng.Exponential{MeanVal: 3000},
			MainCPU: rng.Constant{Value: 100},
		}
		if degrade {
			cfg.Faults = &faults.Plan{
				Seed: 5,
				Resilience: faults.Resilience{
					Degrade: true, DegradePeriod: 10000,
				},
			}
		}
		return run(t, cfg)
	}

	base := mk(false)
	if base.PipeBlockedWaitSec == 0 || base.BlockedPuts == 0 {
		t.Fatalf("baseline not overloaded (blockedWait=%v, blockedPuts=%d); scenario is vacuous",
			base.PipeBlockedWaitSec, base.BlockedPuts)
	}

	deg := mk(true)
	if deg.SamplesThinned == 0 || deg.DegradedResidencySec == 0 || deg.DegradeEngagements == 0 {
		t.Fatalf("degradation did not engage: %+v", deg)
	}
	if deg.PipeBlockedWaitSec >= base.PipeBlockedWaitSec {
		t.Fatalf("degraded blocking %.3fs not below unprotected baseline %.3fs",
			deg.PipeBlockedWaitSec, base.PipeBlockedWaitSec)
	}
}
