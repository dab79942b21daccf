package procs

import (
	"math"

	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/resources"
	"rocc/internal/rng"
	"rocc/internal/stats"
)

// NewLatencyHistogram returns the main process's monitoring-latency
// histogram: eighth-octave buckets (each bound 2^(1/8) ≈ 1.09 times the
// last) from 1 µs to 2^27 µs ≈ 134 s, then one overflow bucket.
// Interpolating inside a bucket (along the density's slope where the
// neighbouring buckets show one; stats.BucketHistogram.Quantile) is off
// by at most one bucket width, 9.05% of the value; core's TestLatencyQuantilesMatchExactOrderStatistic holds
// P50 and P95 within 1.5% of the exact order statistic and P99 within 3%.
func NewLatencyHistogram() *stats.BucketHistogram {
	return stats.NewBucketHistogram("sample_latency_us", latencyBounds)
}

// latencyBounds are NewLatencyHistogram's bucket bounds, computed once:
// every histogram copies them.
var latencyBounds = stats.ExpBuckets(1, math.Exp2(1.0/8), 216)

// MainProcess is the main Paradyn process: it receives forwarded messages
// and spends CPU consuming each one (delivering metrics to the Performance
// Consultant). Monitoring latency — generation to receipt at this central
// collection facility — is recorded on message arrival.
//
// Message handling is a single server, as the paper's one Data Manager
// thread: main has at most one request on its CPU, and a message that
// arrives while it is busy waits in the inbox, which holds only a count.
type MainProcess struct {
	Sim *des.Simulator
	CPU *resources.CPU
	R   *rng.Stream

	// CPUDist is the per-message processing demand, drawn from R when
	// the message's service starts, so the n-th message served gets the
	// n-th draw and a backlog never served draws nothing.
	CPUDist rng.Dist

	// Msgs takes back every message once it has been received; it is the
	// pool the model's daemons draw their messages from.
	Msgs *forward.MessagePool

	// Obs, when non-nil, receives one delivery notification per message.
	Obs Observer

	// Latency accumulates per-sample monitoring latency in microseconds.
	Latency stats.Accumulator
	// ForwardLatency accumulates latency excluding batch accumulation: the
	// age of the *newest* sample in each message, i.e. the transport and
	// processing delay alone.
	ForwardLatency stats.Accumulator
	// Latencies is the distribution of per-sample monitoring latency in
	// microseconds: every delivered sample is observed here once, and the
	// Result's percentiles and maximum are read from it. The observability
	// layer exports this same histogram; it is never copied.
	Latencies *stats.BucketHistogram

	SamplesReceived  int
	MessagesReceived int
	HopsTotal        int

	// Inbox counts the messages received but not yet served; InboxPeak
	// is its largest value since the last ResetAccounting.
	Inbox     int
	InboxPeak int

	busy    bool      // a message's request is on the CPU
	serving bool      // serve is running
	doneFn  func()    // m.done, bound once
	lats    []float64 // a message's latencies for Latencies, reused across messages
}

// ResetAccounting clears the main process's metrics; used for warmup
// (initial-transient) removal.
func (m *MainProcess) ResetAccounting() {
	m.Latency = stats.Accumulator{}
	m.ForwardLatency = stats.Accumulator{}
	m.Latencies.Reset()
	m.SamplesReceived = 0
	m.MessagesReceived = 0
	m.HopsTotal = 0
	m.InboxPeak = m.Inbox
}

// Receive accepts one forwarded message, releases it to the pool (the
// main process is the end of every message's journey) and queues its
// service.
func (m *MainProcess) Receive(msg *forward.Message) {
	msg.MustBeLive("procs.MainProcess.Receive")
	now := m.Sim.Now()
	newest := 0.0
	lats := m.lats[:0]
	for _, s := range msg.Samples {
		lat := now - s.GenTime
		m.Latency.Add(lat)
		lats = append(lats, lat)
		if s.GenTime > newest {
			newest = s.GenTime
		}
	}
	m.Latencies.ObserveBatch(lats) // one lock per message
	m.lats = lats
	if len(msg.Samples) > 0 {
		m.ForwardLatency.Add(now - newest)
	}
	m.SamplesReceived += len(msg.Samples)
	m.MessagesReceived++
	m.HopsTotal += msg.Hops
	if m.Obs != nil {
		m.Obs.MessageDelivered(now, msg.Samples, msg.Hops)
	}
	m.Msgs.Put(msg)
	m.Inbox++
	m.serve()
	m.InboxPeak = max(m.InboxPeak, m.Inbox)
}

// serve starts the inbox's next message whenever main is idle. A demand
// of at most the CPU's epsilon completes inside Submit, which calls done
// back here: serving guards that call, and this loop serves the next
// message instead of one nested call per message.
func (m *MainProcess) serve() {
	if m.serving {
		return
	}
	if m.doneFn == nil {
		m.doneFn = m.done
	}
	m.serving = true
	for !m.busy && m.Inbox > 0 {
		m.Inbox--
		m.busy = true
		m.CPU.Submit(OwnerMain, m.CPUDist.Sample(m.R), m.doneFn)
	}
	m.serving = false
}

// done runs when the message in service has had its CPU demand.
func (m *MainProcess) done() {
	m.busy = false
	m.serve()
}

// OpenSource generates an open stream of resource occupancy requests. It
// models the PVM daemon (chained: each arrival occupies CPU then the
// network) and "other user/system processes" (independent CPU and network
// arrival streams), per Table 2.
type OpenSource struct {
	Sim   *des.Simulator
	CPU   *resources.CPU
	Net   *resources.Network
	R     *rng.Stream
	Owner string

	CPUDist rng.Dist
	NetDist rng.Dist

	// Chained mode: arrivals spaced by CPUInterarrival each trigger a CPU
	// request followed by a network request (PVM daemon behavior).
	Chained bool

	CPUInterarrival rng.Dist
	NetInterarrival rng.Dist // used only when !Chained

	Arrivals int

	// Reusable continuations (method values and the chained-completion
	// hook allocate per use otherwise). chainNetFn samples the network
	// demand at CPU-completion time, exactly as the inline closure it
	// replaces did; it carries no per-arrival state, so overlapping
	// chained arrivals share it safely.
	cpuArrivalFn func()
	netArrivalFn func()
	chainNetFn   func()
}

// Start schedules the first arrival(s).
func (o *OpenSource) Start() {
	o.cpuArrivalFn = o.cpuArrival
	o.netArrivalFn = o.netArrival
	o.chainNetFn = func() {
		o.Net.Submit(o.Owner, o.NetDist.Sample(o.R), nil)
	}
	if o.CPUInterarrival != nil {
		o.Sim.Schedule(o.CPUInterarrival.Sample(o.R), o.cpuArrivalFn)
	}
	if !o.Chained && o.NetInterarrival != nil {
		o.Sim.Schedule(o.NetInterarrival.Sample(o.R), o.netArrivalFn)
	}
}

func (o *OpenSource) cpuArrival() {
	o.Arrivals++
	if o.Chained {
		o.CPU.Submit(o.Owner, o.CPUDist.Sample(o.R), o.chainNetFn)
	} else {
		o.CPU.Submit(o.Owner, o.CPUDist.Sample(o.R), nil)
	}
	o.Sim.Schedule(o.CPUInterarrival.Sample(o.R), o.cpuArrivalFn)
}

func (o *OpenSource) netArrival() {
	o.Net.Submit(o.Owner, o.NetDist.Sample(o.R), nil)
	o.Sim.Schedule(o.NetInterarrival.Sample(o.R), o.netArrivalFn)
}
