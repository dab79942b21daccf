package faults

import (
	"math"
	"strings"
	"testing"

	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// constCost returns a cost model with every term fixed, so link tests are
// independent of cost randomness.
func constCost() forward.CostModel {
	return forward.CostModel{
		PerMsgCPU:    rng.Constant{Value: 267},
		PerSampleCPU: 8,
		PerMsgNet:    rng.Constant{Value: 71},
		PerSampleNet: 2,
		Merge:        rng.Constant{Value: 100},
	}
}

func msg(n int) *forward.Message {
	return &forward.Message{Samples: make([]resources.Sample, n), FromNode: 1, Hops: 1}
}

func TestPlanActive(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() {
		t.Fatal("nil plan must be inactive")
	}
	if (&Plan{Seed: 42}).Active() {
		t.Fatal("seed alone must not activate the plan")
	}
	for _, p := range []Plan{
		{Loss: 0.1}, {Dup: 0.1}, {DelayProb: 0.1}, {AckLoss: 0.1},
		{CrashMTBF: 1e6}, {SqueezeMTBF: 1e6},
		{Resilience: Resilience{Retransmit: true}},
		{Resilience: Resilience{Degrade: true}},
	} {
		p := p
		if !(&p).Active() {
			t.Fatalf("plan %+v should be active", p)
		}
	}
}

func TestValidateRejectsBadProbabilities(t *testing.T) {
	if _, err := (Plan{Loss: 1.5}).Validate(); err == nil {
		t.Fatal("Loss > 1 must be rejected")
	}
	if _, err := (Plan{Dup: -0.1}).Validate(); err == nil {
		t.Fatal("negative Dup must be rejected")
	}
	if _, err := (Plan{CrashMTBF: -1}).Validate(); err == nil {
		t.Fatal("negative MTBF must be rejected")
	}
}

// NaN passes the ordered range checks, so a NaN rate used to validate (and
// a NaN MTBF then panicked at its first scheduled crash).
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"Loss NaN", Plan{Loss: nan}},
		{"Dup NaN", Plan{Dup: nan}},
		{"DelayProb NaN", Plan{DelayProb: nan}},
		{"AckLoss +Inf", Plan{AckLoss: inf}},
		{"CrashMTBF NaN", Plan{Loss: 0.1, CrashMTBF: nan}},
		{"CrashMTBF +Inf", Plan{CrashMTBF: inf}},
		{"SqueezeMTBF NaN", Plan{SqueezeMTBF: nan}},
		{"SqueezeCapFrac NaN", Plan{SqueezeMTBF: 1e6, SqueezeCapFrac: nan}},
		{"RTO NaN", Plan{Resilience: Resilience{Retransmit: true, RTO: nan}}},
		{"Backoff +Inf", Plan{Resilience: Resilience{Retransmit: true, Backoff: inf}}},
		{"AckDelay NaN", Plan{Resilience: Resilience{Retransmit: true, AckDelay: nan}}},
		{"DegradePeriod NaN", Plan{Resilience: Resilience{Degrade: true, DegradePeriod: nan}}},
		{"PipeWatermark NaN", Plan{Resilience: Resilience{Degrade: true, PipeWatermark: nan}}},
	} {
		if _, err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

func TestValidateDefaults(t *testing.T) {
	p, err := Plan{
		Loss:        0.05,
		DelayProb:   0.1,
		CrashMTBF:   1e6,
		SqueezeMTBF: 1e6,
		Resilience:  Resilience{Retransmit: true, Degrade: true},
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if p.Delay == nil || p.CrashDowntime == nil || p.SqueezeDuration == nil {
		t.Fatal("distribution defaults not applied")
	}
	if p.SqueezeCapFrac != 0.25 {
		t.Fatalf("SqueezeCapFrac default = %v", p.SqueezeCapFrac)
	}
	r := p.Resilience
	if r.RTO != 20000 || r.Backoff != 2 || r.RetryBudget != 6 || r.AckDelay != 100 {
		t.Fatalf("retransmission defaults = %+v", r)
	}
	if r.DegradePeriod != 50000 || r.PipeWatermark != 0.75 || r.RetryWatermark != 8 || r.MaxThinning != 8 {
		t.Fatalf("degradation defaults = %+v", r)
	}
}

// TestLinkLossyUnprotected checks that without retransmission, injected
// loss destroys messages for good and the samples are accounted lost.
func TestLinkLossyUnprotected(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{Seed: 7, Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	l := inj.NewLink(1, 0, net, constCost(), pool, func(m *forward.Message) bool {
		got += len(m.Samples)
		pool.Put(m)
		return true
	})
	const n = 400
	for i := 0; i < n; i++ {
		l.Send(msg(1))
	}
	sim.RunAll()
	if l.LossInjected == 0 || l.LossInjected == n {
		t.Fatalf("loss injected %d of %d, want strictly between", l.LossInjected, n)
	}
	if got+l.SamplesLost != n {
		t.Fatalf("delivered %d + lost %d != sent %d", got, l.SamplesLost, n)
	}
	// ~50% loss: accept a wide deterministic-seed band.
	if l.LossInjected < n/4 || l.LossInjected > 3*n/4 {
		t.Fatalf("loss injected %d of %d at p=0.5", l.LossInjected, n)
	}
}

// TestLinkRetransmitRecoversAll checks that with retransmission and a
// sufficient budget, every message survives heavy loss, duplicates are
// suppressed, and recovery times are recorded.
func TestLinkRetransmitRecoversAll(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{
		Seed: 11, Loss: 0.3, Dup: 0.2, AckLoss: 0.1,
		Resilience: Resilience{Retransmit: true, RTO: 1000, RetryBudget: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	l := inj.NewLink(2, 0, net, constCost(), pool, func(m *forward.Message) bool {
		got += len(m.Samples)
		pool.Put(m)
		return true
	})
	const n = 200
	for i := 0; i < n; i++ {
		l.Send(msg(3))
	}
	sim.RunAll()
	if got != 3*n {
		t.Fatalf("delivered %d samples, want all %d (giveups=%d pending=%d)",
			got, 3*n, l.GiveUps, l.Pending())
	}
	if l.Retransmits == 0 {
		t.Fatal("expected retransmissions under 30% loss")
	}
	if l.Pending() != 0 {
		t.Fatalf("%d messages still pending after RunAll", l.Pending())
	}
	tot := inj.Totals()
	if tot.Recovered == 0 || tot.RecoveryMeanUS <= 0 || tot.RecoveryMaxUS < tot.RecoveryMeanUS {
		t.Fatalf("recovery stats: %+v", tot)
	}
	if l.DupDiscarded == 0 {
		t.Fatal("expected duplicate deliveries to be discarded")
	}
	// Every copy the link made and every original it was sent is back in
	// the pool: delivered copies via the receiver, the rest via the link.
	if pool.Free() != pool.Allocated()+n {
		t.Fatalf("pool holds %d free messages, want %d copies + %d originals",
			pool.Free(), pool.Allocated(), n)
	}
}

// TestLinkRetryBudgetGivesUp checks that a link facing total loss stops
// after its retry budget and accounts the samples as lost.
func TestLinkRetryBudgetGivesUp(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{
		Seed: 3, Loss: 1.0,
		Resilience: Resilience{Retransmit: true, RTO: 1000, Backoff: 2, RetryBudget: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	l := inj.NewLink(0, 0, net, constCost(), pool, func(*forward.Message) bool {
		t.Fatal("nothing can be delivered at 100% loss")
		return true
	})
	l.Send(msg(5))
	sim.RunAll()
	if l.GiveUps != 1 || l.SamplesLost != 5 {
		t.Fatalf("giveups=%d samplesLost=%d, want 1/5", l.GiveUps, l.SamplesLost)
	}
	if l.Retransmits != 4 {
		t.Fatalf("retransmits=%d, want the full budget of 4", l.Retransmits)
	}
	// Exponential backoff: timeouts at 1000, +2000, +4000, +8000, +16000
	// plus a 71us transit per retransmission.
	if now := sim.Now(); now < 31000 || now > 32000 {
		t.Fatalf("final give-up at t=%v, want ~31000+transit", now)
	}
}

// TestLinkRefusedDeliveryRetransmits checks the crash-outage path: a
// receiver that refuses messages generates no acks, so the sender keeps
// retransmitting and delivery succeeds once the receiver recovers.
func TestLinkRefusedDeliveryRetransmits(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{
		Seed:       5,
		Resilience: Resilience{Retransmit: true, RTO: 1000, Backoff: 1, RetryBudget: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	up := false
	got := 0
	l := inj.NewLink(1, 0, net, constCost(), pool, func(m *forward.Message) bool {
		if !up {
			return false
		}
		got += len(m.Samples)
		pool.Put(m)
		return true
	})
	l.Send(msg(2))
	sim.Schedule(3500, func() { up = true })
	sim.RunAll()
	if got != 2 {
		t.Fatalf("delivered %d samples, want 2 after receiver recovery", got)
	}
	if l.Retransmits < 3 {
		t.Fatalf("retransmits=%d, want >=3 during a 3500us outage with RTO 1000", l.Retransmits)
	}
	if l.Pending() != 0 || l.GiveUps != 0 {
		t.Fatalf("pending=%d giveups=%d after recovery", l.Pending(), l.GiveUps)
	}
}

// TestScheduleCrashesAlternates checks the crash schedule takes daemons
// down and brings them back, with downtime accounted.
func TestScheduleCrashesAlternates(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	d := &procs.PdDaemon{
		Sim: sim, CPU: cpu, Net: net, R: rng.New(1),
		Strategy: forward.NewCF(), Cost: constCost(), Node: 0,
		Msgs: pool,
	}
	inj, err := NewInjector(sim, Plan{
		Seed: 9, CrashMTBF: 10000, CrashDowntime: rng.Constant{Value: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.ScheduleCrashes([]*procs.PdDaemon{d})
	end := sim.Schedule(200000, func() {})
	for sim.Now() < 200000 {
		if !sim.Step() {
			break
		}
	}
	_ = end
	if inj.Crashes < 5 {
		t.Fatalf("crashes=%d over 200ms at MTBF 10ms, want several", inj.Crashes)
	}
	if d.CrashCount != inj.Crashes {
		t.Fatalf("daemon crash count %d != injector %d", d.CrashCount, inj.Crashes)
	}
	want := float64(inj.Crashes) * 2000
	if inj.DowntimeUS != want {
		t.Fatalf("downtime %v, want %v", inj.DowntimeUS, want)
	}
	if d.Down() {
		// Legal (mid-outage at cutoff) but with constant 2ms outages the
		// last restore is at most 2ms after the last crash; just note it.
		t.Logf("daemon down at cutoff (mid-outage)")
	}
}

// TestSchedulePipeSqueezes checks squeeze windows clamp and restore the
// pipe's effective capacity.
func TestSchedulePipeSqueezes(t *testing.T) {
	sim := des.New()
	p := resources.NewPipe(16)
	for i := 0; i < 4; i++ {
		p.Put(resources.Sample{}, nil)
	}
	// squeezedTo4 probes the pipe, which holds 4 samples, and leaves it so:
	// a put blocks only under a limit of at most 4, and the get after it
	// admits that writer again unless the limit is below 4.
	squeezedTo4 := func() bool {
		blocked := !p.Put(resources.Sample{}, nil)
		p.Get()
		if p.Len() != 4 || p.Blocked() != 0 {
			t.Fatalf("squeeze below 4 samples: len %d, blocked %d", p.Len(), p.Blocked())
		}
		return blocked
	}
	inj, err := NewInjector(sim, Plan{
		Seed:            13,
		SqueezeMTBF:     5000,
		SqueezeDuration: rng.Constant{Value: 1000},
		SqueezeCapFrac:  0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.SchedulePipeSqueezes([]*resources.Pipe{p})
	sawSqueeze := false
	for i := 0; i < 2000 && sim.Step(); i++ {
		if squeezedTo4() {
			sawSqueeze = true
		}
		if sim.Now() > 100000 {
			break
		}
	}
	if !sawSqueeze {
		t.Fatal("never observed the squeezed capacity limit of 4")
	}
	if inj.Squeezes == 0 {
		t.Fatal("no squeezes accounted")
	}
}

// TestDegraderEngagesAndBacksOff drives the controller directly: pressure
// on the daemon's pipe escalates thinning; relief decays it back.
func TestDegraderEngagesAndBacksOff(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	pipe := resources.NewPipe(8)
	d := &procs.PdDaemon{
		Sim: sim, CPU: cpu, Net: net, R: rng.New(2),
		Pipes:    []*resources.Pipe{pipe},
		Strategy: forward.NewFixedBF(8), Cost: constCost(), Node: 0,
		Deliver: func(m *forward.Message) { pool.Put(m) },
		Msgs:    pool,
	}
	inj, err := NewInjector(sim, Plan{
		Seed: 17,
		Resilience: Resilience{
			Degrade: true, DegradePeriod: 1000,
			PipeWatermark: 0.5, MaxThinning: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := inj.AttachDegrader(d, nil)
	if g == nil {
		t.Fatal("degrader not attached")
	}

	// Keep the pipe above the watermark without waking the daemon, so the
	// controller sees sustained pressure across ticks.
	refill := func() {
		for pipe.Len() < 6 {
			pipe.Put(resources.Sample{}, nil)
		}
	}
	refill()
	for i := 1; i <= 3; i++ {
		i := i
		sim.Schedule(float64(i)*1000-1, func() { refill() })
	}
	// The loop may step one tick past 3500 and see the controller already
	// decaying, so assert on the peak escalation observed between events.
	peakThin := 0
	for sim.Step() && sim.Now() <= 3500 {
		if d.Thinning > peakThin {
			peakThin = d.Thinning
		}
	}
	if peakThin != 4 {
		t.Fatalf("peak thinning=%d after 3 pressured ticks with max 4, want 4", peakThin)
	}
	if g.Engagements != 1 {
		t.Fatalf("engagements=%d, want 1", g.Engagements)
	}
	if g.ResidencyUS == 0 {
		t.Fatal("no degraded residency accumulated")
	}

	// Relief: drain the pipe; after the 3-tick decay hysteresis the
	// controller steps settings back each tick.
	for pipe.Len() > 0 {
		pipe.Get()
	}
	for sim.Step() && sim.Now() <= 15000 {
	}
	if d.Thinning > 1 {
		t.Fatalf("thinning=%d did not decay to 1 after pressure cleared", d.Thinning)
	}
}

// TestInjectorDeterminism re-runs an identical lossy scenario and demands
// identical accounting — the core reproducibility contract.
func TestInjectorDeterminism(t *testing.T) {
	run := func() Totals {
		sim := des.New()
		net := resources.NewNetwork(sim, false)
		pool := &forward.MessagePool{}
		inj, err := NewInjector(sim, Plan{
			Seed: 21, Loss: 0.2, Dup: 0.1, DelayProb: 0.3,
			Delay:      rng.Exponential{MeanVal: 500},
			Resilience: Resilience{Retransmit: true, RTO: 2000, RetryBudget: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		l := inj.NewLink(4, 0, net, constCost(), pool, func(m *forward.Message) bool { pool.Put(m); return true })
		for i := 0; i < 300; i++ {
			l.Send(msg(2))
		}
		sim.RunAll()
		return inj.Totals()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("identical seeds diverged:\n%+v\n%+v", a, b)
	}
	if a.LossInjected == 0 || a.Retransmits == 0 {
		t.Fatalf("scenario too quiet to be meaningful: %+v", a)
	}
}

// TestResetAccountingClearsCounters checks warmup reset zeroes the
// aggregate without touching pending state.
func TestResetAccountingClearsCounters(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{Seed: 1, Loss: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	l := inj.NewLink(0, 0, net, constCost(), pool, func(m *forward.Message) bool { pool.Put(m); return true })
	for i := 0; i < 50; i++ {
		l.Send(msg(1))
	}
	sim.RunAll()
	if (inj.Totals() == Totals{}) {
		t.Fatal("expected non-zero accounting before reset")
	}
	inj.ResetAccounting()
	if got := inj.Totals(); got != (Totals{}) {
		t.Fatalf("reset left residue: %+v", got)
	}
}

// A resilient link's send → deliver → ack round trip with no fault firing
// allocates nothing once warm: the delivered copy and the original come
// from the pool and go back to it, and the pending record, its timer and
// the ack reuse free-listed records with closures bound once.
func TestResilientLinkRoundTripDoesNotAllocate(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{Seed: 1, Resilience: Resilience{Retransmit: true}})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	l := inj.NewLink(0, 0, net, constCost(), pool, func(m *forward.Message) bool {
		delivered++
		pool.Put(m)
		return true
	})
	sendOne := func() {
		m := pool.Get()
		m.Samples = append(m.Samples, resources.Sample{GenTime: sim.Now()})
		l.Send(m)
		sim.RunAll()
	}
	sendOne() // warm up the pools
	if allocs := testing.AllocsPerRun(100, sendOne); allocs != 0 {
		t.Fatalf("one acknowledged send allocated %.2f objects, want 0", allocs)
	}
	if delivered != 102 || l.Pending() != 0 || l.Retransmits != 0 {
		t.Fatalf("delivered %d, pending %d, retransmits %d; want 102, 0, 0", delivered, l.Pending(), l.Retransmits)
	}
	if pool.Allocated() != 2 || pool.Free() != 2 {
		t.Fatalf("pool allocated %d, free %d; want the original and one copy, both free", pool.Allocated(), pool.Free())
	}
}

// Sending a released message panics at the link instead of resending
// whatever the pool has since handed out.
func TestLinkSendReleasedMessagePanics(t *testing.T) {
	sim := des.New()
	pool := &forward.MessagePool{}
	inj, err := NewInjector(sim, Plan{Seed: 1, Resilience: Resilience{Retransmit: true}})
	if err != nil {
		t.Fatal(err)
	}
	l := inj.NewLink(0, 0, resources.NewNetwork(sim, false), constCost(), pool,
		func(*forward.Message) bool { return true })
	m := pool.Get()
	pool.Put(m)
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "faults.Link.Send: ") {
			t.Fatalf("panic %q, want one naming faults.Link.Send", msg)
		}
	}()
	l.Send(m)
}
