package procs

import (
	"math"
	"runtime"
	"testing"

	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// rig bundles a one-node test fixture.
type rig struct {
	sim  *des.Simulator
	cpu  *resources.CPU
	net  *resources.Network
	pipe *resources.Pipe
}

func newRig(pipeCap int) *rig {
	sim := des.New()
	return &rig{
		sim:  sim,
		cpu:  resources.NewCPU(sim, 1, 10000),
		net:  resources.NewNetwork(sim, false),
		pipe: resources.NewPipe(pipeCap),
	}
}

func newApp(r *rig, samplingPeriod float64) *AppProcess {
	return &AppProcess{
		Sim:            r.sim,
		CPU:            r.cpu,
		Net:            r.net,
		Pipe:           r.pipe,
		R:              rng.New(42),
		CPUDist:        rng.Constant{Value: 2000},
		NetDist:        rng.Constant{Value: 200},
		SamplingPeriod: samplingPeriod,
	}
}

func TestAppProcessAlternatesStates(t *testing.T) {
	r := newRig(64)
	app := newApp(r, 0) // uninstrumented
	app.Start()
	r.sim.Run(100000)
	// Each iteration takes 2000 CPU + 200 net = 2200 us on idle resources.
	want := int(100000 / 2200)
	if app.Iterations < want-1 || app.Iterations > want+1 {
		t.Fatalf("iterations %d, want ~%d", app.Iterations, want)
	}
	if app.Generated != 0 {
		t.Fatal("uninstrumented process generated samples")
	}
	if got := r.cpu.Busy(OwnerApp); math.Abs(got-float64(app.Iterations+1)*2000) > 2001 {
		t.Fatalf("app CPU busy %v inconsistent with %d iterations", got, app.Iterations)
	}
}

func TestAppProcessGeneratesSamples(t *testing.T) {
	r := newRig(1024)
	app := newApp(r, 40000) // 40 ms
	app.Start()
	r.sim.Run(1e6) // 1 s
	want := int(1e6 / 40000)
	if app.Generated < want-1 || app.Generated > want {
		t.Fatalf("generated %d samples, want ~%d", app.Generated, want)
	}
	if r.pipe.Len() != app.Generated {
		t.Fatalf("pipe holds %d, generated %d", r.pipe.Len(), app.Generated)
	}
	first, _ := r.pipe.Get()
	if first.GenTime != 40000 {
		t.Fatalf("first sample at %v, want 40000", first.GenTime)
	}
}

func TestAppProcessBlocksOnFullPipe(t *testing.T) {
	r := newRig(2)
	app := newApp(r, 10000)
	app.Start()
	r.sim.Run(500000)
	// Pipe fills at 2 samples (plus one blocked write): the process must
	// have stopped iterating shortly after t=30000.
	if app.BlockedPuts == 0 {
		t.Fatal("expected blocked puts on a tiny pipe with no reader")
	}
	if app.Generated > 4 {
		t.Fatalf("generated %d samples while blocked", app.Generated)
	}
	iterationsWhenBlocked := app.Iterations
	if iterationsWhenBlocked > 20 {
		t.Fatalf("app kept iterating (%d) while blocked on pipe", iterationsWhenBlocked)
	}
	// Draining the pipe resumes the process.
	for {
		if _, ok := r.pipe.Get(); !ok {
			break
		}
	}
	r.sim.Run(1e6)
	if app.Iterations <= iterationsWhenBlocked {
		t.Fatal("app did not resume after pipe drained")
	}
}

func TestBarrierSynchronizesProcesses(t *testing.T) {
	sim := des.New()
	net := resources.NewNetwork(sim, false)
	b := &Barrier{Participants: 2}
	// Two processes with very different speeds; the barrier keeps their
	// iteration counts within one barrier period of each other.
	cpus := []*resources.CPU{resources.NewCPU(sim, 1, 10000), resources.NewCPU(sim, 1, 10000)}
	apps := make([]*AppProcess, 2)
	speeds := []float64{1000, 5000}
	for i := range apps {
		apps[i] = &AppProcess{
			Sim: sim, CPU: cpus[i], Net: net, Pipe: resources.NewPipe(64),
			R:       rng.New(uint64(i)),
			CPUDist: rng.Constant{Value: speeds[i]}, NetDist: rng.Constant{Value: 100},
			Barrier: b, BarrierPeriod: 20000,
		}
		apps[i].Start()
	}
	sim.Run(2e6)
	if b.Releases == 0 {
		t.Fatal("barrier never released")
	}
	// Without the barrier the fast process would do ~5x the iterations of
	// the slow one; with it, their completed work stays within a few
	// percent (bounded by per-cycle overshoot of one iteration each).
	w0 := float64(apps[0].Iterations) * (speeds[0] + 100)
	w1 := float64(apps[1].Iterations) * (speeds[1] + 100)
	if math.Abs(w0-w1) > 0.05*w0 {
		t.Fatalf("work drift across barrier: %v vs %v", w0, w1)
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	b := &Barrier{Participants: 1}
	ran := false
	b.Arrive(func() { ran = true })
	if !ran || b.Releases != 1 || b.Waiting() != 0 {
		t.Fatal("single-participant barrier should open immediately")
	}
}

func newDaemon(r *rig, strategy forward.Strategy) (*PdDaemon, *[]*forward.Message) {
	var delivered []*forward.Message
	d := &PdDaemon{
		Sim: r.sim, CPU: r.cpu, Net: r.net, R: rng.New(7),
		Pipes:    []*resources.Pipe{r.pipe},
		Strategy: strategy,
		Cost: forward.CostModel{
			PerMsgCPU:    rng.Constant{Value: 267},
			PerSampleCPU: 8,
			PerMsgNet:    rng.Constant{Value: 71},
			PerSampleNet: 2,
			Merge:        rng.Constant{Value: 100},
		},
		Deliver: func(m *forward.Message) { delivered = append(delivered, m) },
		Msgs:    &forward.MessagePool{},
	}
	d.Start()
	return d, &delivered
}

func TestDaemonCFForwardsEachSample(t *testing.T) {
	r := newRig(64)
	d, delivered := newDaemon(r, forward.NewCF())
	for i := 0; i < 5; i++ {
		r.pipe.Put(resources.Sample{GenTime: float64(i)}, nil)
	}
	r.sim.RunAll()
	if d.MessagesForwarded != 5 || d.SamplesForwarded != 5 {
		t.Fatalf("forwarded %d msgs / %d samples, want 5/5", d.MessagesForwarded, d.SamplesForwarded)
	}
	if len(*delivered) != 5 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	for i, m := range *delivered {
		if len(m.Samples) != 1 || m.Samples[0].GenTime != float64(i) {
			t.Fatalf("message %d wrong: %+v", i, m)
		}
		if m.Hops != 1 {
			t.Fatalf("hops %d", m.Hops)
		}
	}
	// CF CPU cost: one 267-us request per sample.
	if got := r.cpu.Busy(OwnerPd); got != 5*267 {
		t.Fatalf("Pd CPU %v, want %v", got, 5.0*267)
	}
}

func TestDaemonBFWaitsForBatch(t *testing.T) {
	r := newRig(64)
	d, delivered := newDaemon(r, forward.NewFixedBF(4))
	for i := 0; i < 3; i++ {
		r.pipe.Put(resources.Sample{GenTime: float64(i)}, nil)
	}
	r.sim.RunAll()
	if d.MessagesForwarded != 0 {
		t.Fatal("BF forwarded a partial batch without timeout")
	}
	r.pipe.Put(resources.Sample{GenTime: 3}, nil)
	r.sim.RunAll()
	if d.MessagesForwarded != 1 || d.SamplesForwarded != 4 {
		t.Fatalf("forwarded %d/%d, want 1 msg of 4", d.MessagesForwarded, d.SamplesForwarded)
	}
	if len(*delivered) != 1 || len((*delivered)[0].Samples) != 4 {
		t.Fatal("delivery wrong")
	}
	// BF CPU cost: 267 + 3*8 for the whole batch — far below 4*267.
	if got := r.cpu.Busy(OwnerPd); got != 267+3*8 {
		t.Fatalf("Pd CPU %v, want %v", got, 267+3*8.0)
	}
}

func TestDaemonBFOverheadReduction(t *testing.T) {
	// The headline claim: with batch 32, daemon CPU is cut by >60%.
	runPolicy := func(strategy forward.Strategy) float64 {
		r := newRig(256)
		_, _ = newDaemon(r, strategy)
		for i := 0; i < 320; i++ {
			r.pipe.Put(resources.Sample{GenTime: float64(i)}, nil)
			r.sim.RunAll()
		}
		return r.cpu.Busy(OwnerPd)
	}
	cf := runPolicy(forward.NewCF())
	bf := runPolicy(forward.NewFixedBF(32))
	if reduction := 1 - bf/cf; reduction < 0.60 {
		t.Fatalf("BF reduced daemon CPU by only %.0f%%", reduction*100)
	}
}

func TestDaemonFlushTimeout(t *testing.T) {
	r := newRig(64)
	d, delivered := newDaemon(r, forward.NewFixedBF(100))
	d.FlushTimeout = 50000
	r.pipe.Put(resources.Sample{GenTime: 0}, nil)
	r.pipe.Put(resources.Sample{GenTime: 1}, nil)
	r.sim.Run(200000)
	if d.MessagesForwarded != 1 || d.SamplesForwarded != 2 {
		t.Fatalf("flush did not forward partial batch: %d/%d", d.MessagesForwarded, d.SamplesForwarded)
	}
	if len(*delivered) != 1 {
		t.Fatal("delivery missing")
	}
}

func TestDaemonBatchClampedToPipeCapacity(t *testing.T) {
	// Batch larger than total buffering must clamp, not deadlock.
	r := newRig(4)
	d, _ := newDaemon(r, forward.NewFixedBF(1000))
	if capTotal := d.capacity(); capTotal != 5 { // cap 4 + 1 blocked writer
		t.Fatalf("capacity %d, want 5", capTotal)
	}
	if _, thr := d.Strategy.Decide(0, 5, d.capacity()); thr != 5 {
		t.Fatalf("threshold %d, want 5", thr)
	}
}

func TestDaemonRelayMergesAndForwards(t *testing.T) {
	r := newRig(8)
	d, delivered := newDaemon(r, forward.NewCF())
	msg := &forward.Message{Samples: []resources.Sample{{GenTime: 5}}, FromNode: 3, Hops: 1}
	d.Receive(msg)
	r.sim.RunAll()
	if d.MessagesMerged != 1 {
		t.Fatal("merge not counted")
	}
	if len(*delivered) != 1 || (*delivered)[0].Hops != 2 {
		t.Fatalf("relayed message wrong: %+v", *delivered)
	}
	// Merge cost on CPU.
	if got := r.cpu.Busy(OwnerPd); got != 100 {
		t.Fatalf("merge CPU %v, want 100", got)
	}
}

func TestDaemonRelayPriority(t *testing.T) {
	r := newRig(8)
	d, delivered := newDaemon(r, forward.NewCF())
	// Stage both local samples and a relayed message before any dispatch.
	r.pipe.SetOnData(func() {}) // suppress auto-wake to control ordering
	r.pipe.Put(resources.Sample{GenTime: 1}, nil)
	d.Receive(&forward.Message{Samples: []resources.Sample{{GenTime: 2}}, FromNode: 1, Hops: 1})
	r.sim.RunAll()
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if (*delivered)[0].FromNode != 1 {
		t.Fatal("relay should be forwarded before local collection")
	}
}

func TestMainProcessLatencyAccounting(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	m := &MainProcess{Sim: sim, CPU: cpu, R: rng.New(1), CPUDist: rng.Constant{Value: 3208},
		Msgs: &forward.MessagePool{}, Latencies: NewLatencyHistogram()}
	sim.Schedule(1000, func() {
		m.Receive(&forward.Message{Samples: []resources.Sample{{GenTime: 0}, {GenTime: 500}}, Hops: 1})
	})
	sim.RunAll()
	if m.SamplesReceived != 2 || m.MessagesReceived != 1 || m.HopsTotal != 1 {
		t.Fatal("counters wrong")
	}
	if got := m.Latency.Mean(); got != 750 { // (1000-0 + 1000-500)/2
		t.Fatalf("latency mean %v, want 750", got)
	}
	if got := m.ForwardLatency.Mean(); got != 500 { // newest sample age
		t.Fatalf("forward latency %v, want 500", got)
	}
	if got := cpu.Busy(OwnerMain); got != 3208 {
		t.Fatalf("main CPU %v", got)
	}
}

// A saturated main process holds constant memory: its backlog is a
// count, not a queue. 10^5 messages received while the first holds the
// host's only core make no allocation and leave that one request on the
// CPU; the inbox counts the rest. Served, they take their demands in
// arrival order, the n-th message the n-th draw.
func TestMainBacklogHoldsConstantMemory(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	dist := rng.Exponential{MeanVal: 300}
	m := &MainProcess{Sim: sim, CPU: cpu, R: rng.New(1), CPUDist: dist,
		Msgs: &forward.MessagePool{}, Latencies: NewLatencyHistogram()}
	receiveOne := func() {
		msg := m.Msgs.Get()
		msg.Samples = append(msg.Samples, resources.Sample{})
		m.Receive(msg)
		if n := cpu.QueueLen() + cpu.Running(); n != 1 {
			t.Fatalf("%d requests on the CPU after %d messages, want 1", n, m.MessagesReceived)
		}
	}
	receiveOne() // warm up the pool and the latency buffer
	if allocs := testing.AllocsPerRun(100000, receiveOne); allocs != 0 {
		t.Fatalf("a backlogged receipt allocated %.2f objects, want 0", allocs)
	}
	received := m.MessagesReceived
	if m.Inbox != received-1 || m.InboxPeak != m.Inbox {
		t.Fatalf("inbox %d (peak %d) after %d messages, want %d", m.Inbox, m.InboxPeak, received, received-1)
	}
	sim.RunAll()
	if m.Inbox != 0 || m.InboxPeak != received-1 || cpu.QueueLen()+cpu.Running() != 0 {
		t.Fatalf("inbox %d (peak %d) and %d CPU requests after the drain",
			m.Inbox, m.InboxPeak, cpu.QueueLen()+cpu.Running())
	}
	if m.ResetAccounting(); m.InboxPeak != 0 {
		t.Fatalf("inbox peak %d after a reset with an empty inbox", m.InboxPeak)
	}
	r, want := rng.New(1), 0.0
	for i := 0; i < received; i++ {
		want += dist.Sample(r)
	}
	if got := cpu.Busy(OwnerMain); got != want {
		t.Fatalf("main busy %v, want the first %d draws' sum %v", got, received, want)
	}
}

// depthDist draws one long demand, then demands too short to need a core,
// and records the stack depth of every draw.
type depthDist struct{ depths []int }

func (d *depthDist) Sample(*rng.Stream) float64 {
	var pcs [64]uintptr
	d.depths = append(d.depths, runtime.Callers(0, pcs[:]))
	if len(d.depths) == 1 {
		return 1000
	}
	return 1e-10
}
func (d *depthDist) Mean() float64  { return 0 }
func (d *depthDist) String() string { return "depth" }

// CPU.Submit completes a demand of at most 1e-9 µs before it returns, so
// a backlog of such demands drains in serve's loop: every draw after the
// first, held one runs at the same stack depth, where serving each message
// from the last one's completion would nest one call deeper per message.
func TestMainDrainsTinyDemandsWithoutNesting(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	d := &depthDist{}
	m := &MainProcess{Sim: sim, CPU: cpu, R: rng.New(1), CPUDist: d,
		Msgs: &forward.MessagePool{}, Latencies: NewLatencyHistogram()}
	const n = 1000
	for i := 0; i < n; i++ {
		m.Receive(m.Msgs.Get())
	}
	sim.RunAll()
	if m.Inbox != 0 || len(d.depths) != n {
		t.Fatalf("inbox %d, %d draws for %d messages", m.Inbox, len(d.depths), n)
	}
	for i, depth := range d.depths[1:] {
		if depth != d.depths[1] {
			t.Fatalf("draw %d at stack depth %d, the first drained draw at %d", i+1, depth, d.depths[1])
		}
	}
	if got := cpu.Busy(OwnerMain); got != 1000 {
		t.Fatalf("main busy %v, want the held demand's 1000", got)
	}
}

func TestOpenSourceChained(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	net := resources.NewNetwork(sim, false)
	o := &OpenSource{
		Sim: sim, CPU: cpu, Net: net, R: rng.New(3), Owner: OwnerPvm,
		CPUDist: rng.Constant{Value: 294}, NetDist: rng.Constant{Value: 58},
		Chained: true, CPUInterarrival: rng.Constant{Value: 6485},
	}
	o.Start()
	sim.Run(649000) // 100 arrivals
	if o.Arrivals != 100 {
		t.Fatalf("arrivals %d, want 100", o.Arrivals)
	}
	if got := cpu.Busy(OwnerPvm); math.Abs(got-100*294) > 294 {
		t.Fatalf("pvm CPU %v", got)
	}
	if got := net.Busy(OwnerPvm); math.Abs(got-100*58) > 60 {
		t.Fatalf("pvm net %v", got)
	}

	// The PVM daemon is an open stream on purpose, as Table 2 gives it an
	// arrival stream: arrivals every 1 ms while a 20 ms request holds the
	// CPU each queue a request of their own. Serving them one at a time,
	// as main is served, changes Results and must be a deliberate edit.
	sim = des.New()
	cpu = resources.NewCPU(sim, 1, 20000)
	cpu.Submit(OwnerApp, 20000, nil)
	o = &OpenSource{
		Sim: sim, CPU: cpu, Net: resources.NewNetwork(sim, false), R: rng.New(3), Owner: OwnerPvm,
		CPUDist: rng.Constant{Value: 294}, NetDist: rng.Constant{Value: 58},
		Chained: true, CPUInterarrival: rng.Constant{Value: 1000},
	}
	o.Start()
	sim.Run(19500)
	if o.Arrivals != 19 || cpu.Running() != 1 || cpu.QueueLen() != 19 {
		t.Fatalf("%d arrivals behind a held CPU left %d requests queued, %d running; want 19 queued, 1 running",
			o.Arrivals, cpu.QueueLen(), cpu.Running())
	}
}

func TestOpenSourceIndependentStreams(t *testing.T) {
	sim := des.New()
	cpu := resources.NewCPU(sim, 1, 10000)
	net := resources.NewNetwork(sim, false)
	o := &OpenSource{
		Sim: sim, CPU: cpu, Net: net, R: rng.New(4), Owner: OwnerOther,
		CPUDist: rng.Constant{Value: 367}, NetDist: rng.Constant{Value: 92},
		CPUInterarrival: rng.Constant{Value: 10000},
		NetInterarrival: rng.Constant{Value: 25000},
	}
	o.Start()
	sim.Run(100000)
	// Arrivals at 10k..100k; the one at t=100k has not completed service,
	// so 9 CPU requests and 3 network requests have accrued occupancy.
	if got := cpu.Busy(OwnerOther); got != 9*367 {
		t.Fatalf("other CPU %v", got)
	}
	if got := net.Busy(OwnerOther); got != 3*92 {
		t.Fatalf("other net %v", got)
	}
}

func TestDaemonCrashLosesInMemoryStateOnly(t *testing.T) {
	r := newRig(64)
	d, delivered := newDaemon(r, forward.NewCF())
	// A relayed message and an in-preparation batch are both in memory.
	d.Receive(&forward.Message{Samples: make([]resources.Sample, 3), FromNode: 9, Hops: 1})
	r.pipe.Put(resources.Sample{GenTime: 1}, nil)
	// Crash before any CPU work completes: merge CPU is in flight.
	r.sim.Run(50) // < 100 us merge cost
	d.Crash()
	if !d.Down() || d.CrashCount != 1 {
		t.Fatal("crash state")
	}
	// A message arriving while down is refused without an ack.
	if d.Accept(&forward.Message{Samples: make([]resources.Sample, 2)}) {
		t.Fatal("down daemon accepted a message")
	}
	r.sim.RunAll()
	if len(*delivered) != 0 {
		t.Fatal("crashed daemon forwarded data")
	}
	// 3 relayed samples lost with the relay queue + 2 refused via Receive
	// path accounting happens only for Receive, not Accept: Accept refuses
	// before any state is taken. The pipe sample survives (kernel buffer).
	if d.CrashLostSamples != 3 {
		t.Fatalf("crash-lost samples %d, want 3", d.CrashLostSamples)
	}
	if r.pipe.Len() != 1 {
		t.Fatal("pipe contents must survive a daemon crash")
	}
	// Restore: the daemon drains the surviving pipe sample.
	d.Restore()
	r.sim.RunAll()
	if len(*delivered) != 1 || d.SamplesForwarded != 1 {
		t.Fatalf("restored daemon forwarded %d messages", len(*delivered))
	}
}

func TestDaemonThinningForwardsSubset(t *testing.T) {
	r := newRig(64)
	d, delivered := newDaemon(r, forward.NewCF())
	d.Thinning = 4 // keep 1 in 4
	for i := 0; i < 8; i++ {
		r.pipe.Put(resources.Sample{GenTime: float64(i)}, nil)
	}
	r.sim.RunAll()
	if d.SamplesCollected != 8 {
		t.Fatalf("collected %d, want 8 (thinning must still drain the pipe)", d.SamplesCollected)
	}
	if d.SamplesThinned != 6 || d.SamplesForwarded != 2 {
		t.Fatalf("thinned %d forwarded %d, want 6/2", d.SamplesThinned, d.SamplesForwarded)
	}
	if r.pipe.Len() != 0 {
		t.Fatal("thinning must free pipe space")
	}
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d messages", len(*delivered))
	}
}
