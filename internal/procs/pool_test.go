package procs

import (
	"reflect"
	"strings"
	"testing"

	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/resources"
	"rocc/internal/rng"
	"rocc/internal/stats"
)

// A CF daemon forwarding one sample from its pipe to delivery allocates
// nothing once warm: the message and its sample array come from the pool
// and go back to it on delivery, and pipe, CPU job, network transfer and
// the events between them all reuse pooled storage.
func TestDaemonCFForwardDoesNotAllocate(t *testing.T) {
	r := newRig(64)
	d, _ := newDaemon(r, forward.NewCF())
	delivered := 0
	d.Deliver = func(m *forward.Message) {
		delivered++
		d.Msgs.Put(m)
	}
	forwardOne := func() {
		r.pipe.Put(resources.Sample{GenTime: r.sim.Now()}, nil)
		r.sim.RunAll()
	}
	forwardOne() // warm up the pools
	allocs := testing.AllocsPerRun(100, forwardOne)
	if allocs != 0 {
		t.Fatalf("forwarding one sample allocated %.2f objects, want 0", allocs)
	}
	if delivered != 102 {
		t.Fatalf("delivered %d messages, want 102", delivered)
	}
	if d.Msgs.Allocated() != 1 || d.Msgs.Free() != 1 {
		t.Fatalf("pool allocated %d, free %d; want one message reused throughout", d.Msgs.Allocated(), d.Msgs.Free())
	}
}

// A tree relay hop — a child's message received, merged on the CPU and
// sent on toward the main process — allocates nothing once warm.
func TestDaemonRelayHopDoesNotAllocate(t *testing.T) {
	r := newRig(64)
	d, _ := newDaemon(r, forward.NewCF())
	d.Deliver = func(m *forward.Message) {
		if m.Hops != 2 || len(m.Samples) != 2 {
			t.Fatalf("relayed message has %d hops, %d samples; want 2, 2", m.Hops, len(m.Samples))
		}
		d.Msgs.Put(m)
	}
	relayOne := func() {
		m := d.Msgs.Get()
		m.Samples = append(m.Samples, resources.Sample{GenTime: r.sim.Now()}, resources.Sample{GenTime: r.sim.Now()})
		m.FromNode, m.Hops = 1, 1
		d.Receive(m)
		r.sim.RunAll()
	}
	relayOne() // warm up the pools
	if allocs := testing.AllocsPerRun(100, relayOne); allocs != 0 {
		t.Fatalf("relaying one message allocated %.2f objects, want 0", allocs)
	}
	if d.MessagesMerged != 102 {
		t.Fatalf("merged %d messages, want 102", d.MessagesMerged)
	}
}

// The main process's receipt of a message on the plain path (no
// observer) allocates nothing once warm, at one sample per message (CF)
// and at 18: the message's latencies reach the histogram in one locked
// batch from a buffer the process reuses. The histogram and the latency
// accumulator end as one Observe and one Add per sample, in sample order,
// leave them.
func TestMainReceiveDoesNotAllocate(t *testing.T) {
	for _, size := range []int{1, 18} {
		sim := des.New()
		m := &MainProcess{Sim: sim, CPU: resources.NewCPU(sim, 1, 10000), R: rng.New(1),
			CPUDist: rng.Constant{Value: 300}, Msgs: &forward.MessagePool{}, Latencies: NewLatencyHistogram()}
		want := NewLatencyHistogram()
		var wantAcc stats.Accumulator
		gen := 0.0
		receiveOne := func() {
			msg := m.Msgs.Get()
			for i := 0; i < size; i++ {
				gen += 37.25
				msg.Samples = append(msg.Samples, resources.Sample{GenTime: gen})
				want.Observe(sim.Now() - gen)
				wantAcc.Add(sim.Now() - gen)
			}
			m.Receive(msg)
			sim.RunAll()
		}
		receiveOne() // warm up the pools and the latency buffer
		if allocs := testing.AllocsPerRun(100, receiveOne); allocs != 0 {
			t.Fatalf("%d-sample messages: receipt allocated %.2f objects, want 0", size, allocs)
		}
		if got := m.Latencies.Snapshot(); !reflect.DeepEqual(got, want.Snapshot()) {
			t.Fatalf("%d-sample messages: latency histogram %+v, per-sample Observe %+v", size, got, want.Snapshot())
		}
		if m.Latency != wantAcc || m.SamplesReceived != 102*size {
			t.Fatalf("%d-sample messages: latency accumulator %+v (want %+v), %d samples received",
				size, m.Latency, wantAcc, m.SamplesReceived)
		}
	}
}

// Handing a released message to any owner panics at the hand-off instead
// of corrupting whichever message the pool hands out next.
func TestReleasedMessagePanicsAtHandOff(t *testing.T) {
	r := newRig(64)
	d, _ := newDaemon(r, forward.NewCF())
	main := &MainProcess{Sim: r.sim, CPU: r.cpu, R: rng.New(1), CPUDist: rng.Constant{Value: 1},
		Msgs: d.Msgs, Latencies: NewLatencyHistogram()}
	for _, tc := range []struct {
		site string
		use  func(*forward.Message)
	}{
		{"procs.PdDaemon.Receive", d.Receive},
		{"procs.PdDaemon.Accept", func(m *forward.Message) { d.Accept(m) }},
		{"procs.MainProcess.Receive", main.Receive},
		{"forward.MessagePool.Put", d.Msgs.Put},
	} {
		t.Run(tc.site, func(t *testing.T) {
			m := d.Msgs.Get()
			d.Msgs.Put(m)
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, tc.site+": ") {
					t.Fatalf("panic %q, want one naming %s", msg, tc.site)
				}
			}()
			tc.use(m)
		})
	}
}

// jobRecorder records sample losses and forwarded messages in order;
// every other hook is a no-op.
type jobRecorder struct {
	lost   []resources.Sample
	events []string // "lost" or "forwarded", one per hook call
}

func (*jobRecorder) SampleGenerated(float64, resources.Sample, bool)       {}
func (*jobRecorder) BatchCollected(int, float64, int)                      {}
func (*jobRecorder) MessageReceived(int, float64, []resources.Sample, int) {}
func (*jobRecorder) MessageDelivered(float64, []resources.Sample, int)     {}
func (*jobRecorder) DaemonCrashed(int, float64, int)                       {}
func (*jobRecorder) DaemonRestored(int, float64)                           {}
func (*jobRecorder) MessageRetransmitted(int, float64, int)                {}

func (r *jobRecorder) MessageForwarded(int, float64, []resources.Sample, int) {
	r.events = append(r.events, "forwarded")
}

func (r *jobRecorder) SampleLost(_ int, _ float64, s resources.Sample, reason LossReason) {
	if reason != LossCrash {
		panic("unexpected loss reason " + reason.String())
	}
	r.lost = append(r.lost, s)
	r.events = append(r.events, "lost")
}

// A crash does not withdraw the daemon's collection job from the CPU, so
// a Restore before that job completes leaves two jobs outstanding: the
// stale one and the one collecting the next sample. Round-robin slicing
// can finish them in either order. Either way the stale batch is lost
// exactly once, the new batch is delivered, and each job holds its own
// pooled record.
func TestDaemonCrashRestoreWithJobOnCPU(t *testing.T) {
	for _, tc := range []struct {
		name       string
		quantum    float64
		staleFirst bool
	}{
		// The stale job collects 20 samples (427 us of CPU from t=10), the
		// new one 1 sample (275 us from t=70): run to completion, the stale
		// job ends first; sliced finely, the shorter new job does.
		{"stale job finishes first", 10000, true},
		{"new job finishes first", 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(64)
			r.cpu = resources.NewCPU(r.sim, 1, tc.quantum)
			d, delivered := newDaemon(r, forward.NewFixedBF(32))
			d.FlushTimeout = 10 // a partial batch goes out 10 us after it starts waiting
			rec := &jobRecorder{}
			d.Obs = rec

			for i := 1; i <= 20; i++ {
				r.pipe.Put(resources.Sample{GenTime: 0, Seq: i}, nil)
			}
			r.sim.Run(50) // job 1 (samples 1-20) is on the CPU from t=10
			d.Crash()
			r.pipe.Put(resources.Sample{GenTime: 50, Seq: 21}, nil) // waits in the pipe
			r.sim.Run(60)
			d.Restore()
			r.sim.Run(70) // job 2 (sample 21) starts while job 1 is outstanding
			if got := r.cpu.Running() + r.cpu.QueueLen(); got != 2 {
				t.Fatalf("%d CPU requests outstanding, want 2", got)
			}
			if len(d.jobFree) != 0 {
				t.Fatalf("%d free job records while two jobs are outstanding", len(d.jobFree))
			}
			r.sim.RunAll()

			if d.CrashLostSamples != 20 || len(rec.lost) != 20 {
				t.Fatalf("crash-lost samples %d, lost hooks %d, want 20 each", d.CrashLostSamples, len(rec.lost))
			}
			for i, s := range rec.lost {
				if s.Seq != i+1 {
					t.Fatalf("lost sample %d has seq %d, want %d", i, s.Seq, i+1)
				}
			}
			if len(*delivered) != 1 || len((*delivered)[0].Samples) != 1 || (*delivered)[0].Samples[0].Seq != 21 {
				t.Fatalf("delivered %+v, want one message carrying sample 21", *delivered)
			}
			if staleFirst := rec.events[0] == "lost"; staleFirst != tc.staleFirst {
				t.Fatalf("stale job finished first = %v, want %v", staleFirst, tc.staleFirst)
			}
			if len(d.jobFree) != 2 || d.jobFree[0] == d.jobFree[1] {
				t.Fatalf("free list holds %d records after both jobs, want 2 distinct", len(d.jobFree))
			}
		})
	}
}
