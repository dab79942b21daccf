package core

import (
	"reflect"
	"testing"

	"rocc/internal/des"
	"rocc/internal/faults"
	"rocc/internal/forward"
)

// calendarCases spans the model's behavior space: every architecture, CF
// and BF forwarding, tree topology, contended network, barriers, event
// tracing, the detailed process model, warmup, and an active fault plan.
// Each exercises a different scheduling pattern (cancellations, same-time
// bursts, long-idle timers), so together they pin the full Schedule/Cancel
// surface the calendar sees.
func calendarCases() map[string]Config {
	now := shortCfg()

	bf := shortCfg()
	bf.Strategy = forward.NewFixedBF(10)
	bf.FlushTimeout = 50000

	smp := shortCfg()
	smp.Arch = SMP
	smp.Nodes = 4
	smp.AppProcs = 8
	smp.Pds = 2
	smp.SamplingPeriod = 5000

	mpp := shortCfg()
	mpp.Arch = MPP
	mpp.Nodes = 16
	mpp.Forwarding = forward.Tree
	mpp.Strategy = forward.NewFixedBF(4)

	barrier := shortCfg()
	barrier.BarrierPeriod = 200000
	barrier.Warmup = 1e6

	detailed := shortCfg()
	detailed.EventTrace = true
	detailed.Detailed = DetailedModel{IOProb: 0.05, SpawnPeriod: 2e6}

	faulty := shortCfg()
	faulty.Faults = &faults.Plan{
		Seed:      3,
		Loss:      0.05,
		Dup:       0.02,
		CrashMTBF: 2e6,
		Resilience: faults.Resilience{
			Retransmit: true,
			Degrade:    true,
		},
	}

	return map[string]Config{
		"now-cf": now, "now-bf": bf, "smp": smp, "mpp-tree": mpp,
		"barrier-warmup": barrier, "detailed-trace": detailed, "faults": faulty,
	}
}

// The calendar choice is a pure performance knob: every implementation
// must produce the byte-identical Result for the same seed. Result is all
// scalar fields, so == is a full comparison. Run under -race in CI.
func TestCalendarKindsProduceIdenticalResults(t *testing.T) {
	for name, cfg := range calendarCases() {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := cfg
			base.Calendar = des.CalendarHeap
			want := mustRun(t, base)
			for _, k := range []des.CalendarKind{des.CalendarAuto, des.CalendarBucket} {
				c := cfg
				c.Calendar = k
				if got := mustRun(t, c); !reflect.DeepEqual(got, want) {
					t.Fatalf("calendar %v diverged from heap:\nheap:   %+v\n%v: %+v", k, want, k, got)
				}
			}
		})
	}
}

// expectedPending should put the default 8-node NOW config (and anything
// bigger) on the bucket calendar, and a minimal 1-node scenario on the
// heap — the two sides of the hold-model crossover.
func TestCalendarAutoSelection(t *testing.T) {
	big, err := DefaultConfig().Validate()
	if err != nil {
		t.Fatal(err)
	}
	if n := big.expectedPending(); n < 48 {
		t.Fatalf("default config expectedPending %d, want >= 48 (bucket)", n)
	}
	small := Config{Nodes: 1, AppProcs: 1, Duration: 1e6}
	small, err = small.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if n := small.expectedPending(); n >= 48 {
		t.Fatalf("minimal config expectedPending %d, want < 48 (heap)", n)
	}
	if _, ok := des.NewCalendarFor(des.CalendarAuto, des.WorkloadHints{PendingEvents: big.expectedPending()}).(*des.BucketCalendar); !ok {
		t.Fatal("auto did not pick the bucket calendar for the default config")
	}
	if _, ok := des.NewCalendarFor(des.CalendarAuto, des.WorkloadHints{PendingEvents: small.expectedPending()}).(*des.HeapCalendar); !ok {
		t.Fatal("auto did not pick the heap calendar for a minimal config")
	}
}
