// Package obs is the in-simulator observability layer: sample-lifecycle
// tracing, metrics probes, and structured run logging for the ROCC
// simulation stack.
//
// The design goal is zero overhead when disabled. Every instrumentation
// point in internal/des, internal/resources, and internal/procs is a
// nil-guarded hook field — a single predictable branch on the hot path
// when no observer is attached (proven by the nil-observer allocation
// tests and the allocation bounds of core's TestResultDigestPins). When a
// Collector is attached via core.Model.EnableObservability, the
// simulation emits:
//
//   - Occupancy spans: every CPU scheduler dispatch and network transfer,
//     with owner class, simulated start time, and length — the same
//     records the AIX kernel tracer produced for the paper's Section 5
//     measurements. Exportable as internal/trace records (rocctrace
//     analyzes simulated runs exactly like measured traces) and as Chrome
//     trace-event JSON loadable in Perfetto or chrome://tracing.
//   - Sample-lifecycle events: generation, pipe put/block/drop/get, batch
//     collection, forwarding, retransmission, and delivery, each tagged
//     with the sample's (node, proc, seq) identity and simulated time, so
//     a sample's full path from application write to main-process receipt
//     is reconstructible.
//   - Metrics: a small registry of counters, gauges, and bucketed
//     histograms (with interpolated quantiles — the p50/p95/p99 delivery
//     delay behind the paper's latency figures), plus a periodic Sampler
//     that captures resource utilization, queue lengths, and pipe
//     occupancy as simulated-time series.
//
// The hook interfaces themselves live with the packages that call them
// (des.Observer, resources.PipeObserver, procs.Observer); Collector
// satisfies all of them structurally, so those packages stay free of any
// obs dependency.
package obs

import (
	"rocc/internal/procs"
	"rocc/internal/resources"
)

// FlowObserver consumes the per-sample lifecycle fan-out the provenance
// engine (internal/obs/prov) needs to fold each sample's path into
// per-stage dwell times. It is a subset-with-batches view of the
// procs.Observer and resources.PipeObserver hooks: batch slices are
// caller-owned and must not be retained.
type FlowObserver interface {
	// SampleGenerated: the sample exists; blocked reports a full-pipe stall.
	SampleGenerated(t float64, s resources.Sample, blocked bool)
	// PipePut: the sample was accepted into its pipe (admit time for
	// blocked writers).
	PipePut(t float64, s resources.Sample)
	// PipeGet: a daemon drained the sample from its pipe.
	PipeGet(t float64, s resources.Sample)
	// PipeDropped: the sample was discarded at a full pipe.
	PipeDropped(t float64, s resources.Sample)
	// BatchForwarded: a daemon handed a message carrying batch to the
	// network (hops==1: first forward after collection; >1: relay).
	BatchForwarded(node int, t float64, batch []resources.Sample, hops int)
	// BatchArrived: a relay daemon accepted a message from a child.
	BatchArrived(node int, t float64, batch []resources.Sample, hops int)
	// SampleDelivered: the sample reached the main process.
	SampleDelivered(t float64, s resources.Sample, latencyUS float64)
	// SampleLost: the sample left the system without reaching the main
	// process.
	SampleLost(node int, t float64, s resources.Sample, reason procs.LossReason)
	// ResetAccounting discards aggregates at the warmup boundary (records
	// of still-in-flight samples survive, mirroring the model's latency
	// accounting, which measures carryover samples from generation).
	ResetAccounting()
}

// Collector is the one-stop observer wired through a model: it fans each
// instrumentation callback into the optional trace sink, metrics
// registry, and per-sample flow observer. A nil Sink, Metrics, or Flow
// disables that third; the corresponding work is skipped.
//
// Collector satisfies des.Observer, resources.PipeObserver, and
// procs.Observer.
type Collector struct {
	Sink    *TraceSink
	Metrics *Metrics
	Flow    FlowObserver
}

// NewCollector returns a collector with the requested halves enabled.
func NewCollector(trace, metrics bool) *Collector {
	c := &Collector{}
	if trace {
		c.Sink = NewTraceSink()
	}
	if metrics {
		c.Metrics = NewMetrics()
	}
	return c
}

// ResetAccounting discards everything recorded so far: trace spans and
// events, metric counters, histograms, and sampler series. The model
// calls it at the end of the warmup period so observability data covers
// exactly the measured window, like every other accounting in the model.
func (c *Collector) ResetAccounting() {
	if c.Sink != nil {
		c.Sink.Reset()
	}
	if c.Metrics != nil {
		c.Metrics.Reset()
	}
	if c.Flow != nil {
		c.Flow.ResetAccounting()
	}
}

// EventDispatched implements des.Observer: one engine event executed.
func (c *Collector) EventDispatched(t float64, pending int) {
	if c.Metrics != nil {
		c.Metrics.Events.Add(1)
	}
}

// Occupancy records one completed resource-occupancy slice. kind selects
// the resource; unit identifies the CPU (node index, or the host CPU's
// index) and is 0 for the network.
func (c *Collector) Occupancy(kind OccKind, unit int, owner string, start, length float64) {
	if c.Sink != nil {
		c.Sink.addSpan(kind, unit, owner, start, length)
	}
}

// SampleGenerated implements procs.Observer: an application process wrote
// one instrumentation sample (blocked reports a full-pipe stall).
func (c *Collector) SampleGenerated(t float64, s resources.Sample, blocked bool) {
	if c.Metrics != nil {
		c.Metrics.Generated.Add(1)
		if blocked {
			c.Metrics.BlockedPuts.Add(1)
		}
	}
	if c.Flow != nil {
		c.Flow.SampleGenerated(t, s, blocked)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvSampleGenerated, TUS: t, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
		if blocked {
			c.Sink.addEvent(Event{Kind: EvSampleBlocked, TUS: t, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
		}
	}
}

// PipePut implements resources.PipeObserver: a sample entered a pipe.
func (c *Collector) PipePut(pipe int, t float64, s resources.Sample, depth int) {
	if c.Flow != nil {
		c.Flow.PipePut(t, s)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvPipePut, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: depth})
	}
}

// PipeBlocked implements resources.PipeObserver: a writer stalled on a
// full pipe (the §4.3.3 effect).
func (c *Collector) PipeBlocked(pipe int, t float64, s resources.Sample) {
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvPipeBlocked, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
	}
}

// PipeDropped implements resources.PipeObserver: a sample was discarded at
// a full pipe; oldest distinguishes DropOldest evictions from arrivals.
func (c *Collector) PipeDropped(pipe int, t float64, s resources.Sample, oldest bool) {
	if c.Metrics != nil {
		c.Metrics.Dropped.Add(1)
	}
	if c.Flow != nil {
		c.Flow.PipeDropped(t, s)
	}
	if c.Sink != nil {
		n := 0
		if oldest {
			n = 1
		}
		c.Sink.addEvent(Event{Kind: EvPipeDropped, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: n})
	}
}

// PipeGet implements resources.PipeObserver: a daemon drained a sample.
func (c *Collector) PipeGet(pipe int, t float64, s resources.Sample, depth int) {
	if c.Flow != nil {
		c.Flow.PipeGet(t, s)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvPipeGet, TUS: t, Unit: pipe, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: depth})
	}
}

// BatchCollected implements procs.Observer: a daemon drained one batch
// from its local pipes.
func (c *Collector) BatchCollected(node int, t float64, samples int) {
	if c.Metrics != nil {
		c.Metrics.Batches.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvBatchCollected, TUS: t, Node: node, N: samples})
	}
}

// MessageForwarded implements procs.Observer: a daemon put a message on
// the network toward its parent or the main process.
func (c *Collector) MessageForwarded(node int, t float64, batch []resources.Sample, hops int) {
	if c.Metrics != nil {
		c.Metrics.Forwards.Add(1)
	}
	if c.Flow != nil {
		c.Flow.BatchForwarded(node, t, batch, hops)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvMessageForwarded, TUS: t, Node: node, N: len(batch), Hops: hops})
		for _, s := range batch {
			c.Sink.addEvent(Event{Kind: EvSampleForwarded, TUS: t, Unit: node, Node: s.Node, Proc: s.Proc, Seq: s.Seq, Hops: hops})
		}
	}
}

// MessageReceived implements procs.Observer: a relay daemon accepted a
// message from a child for merging (tree forwarding).
func (c *Collector) MessageReceived(node int, t float64, batch []resources.Sample, hops int) {
	if c.Flow != nil {
		c.Flow.BatchArrived(node, t, batch, hops)
	}
	if c.Sink != nil {
		for _, s := range batch {
			c.Sink.addEvent(Event{Kind: EvSampleArrived, TUS: t, Unit: node, Node: s.Node, Proc: s.Proc, Seq: s.Seq, Hops: hops})
		}
	}
}

// MessageDelivered implements procs.Observer: the main Paradyn process
// received one forwarded message.
func (c *Collector) MessageDelivered(t float64, samples, hops int) {
	if c.Metrics != nil {
		c.Metrics.DeliveredMsgs.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvMessageDelivered, TUS: t, N: samples, Hops: hops})
	}
}

// SampleDelivered implements procs.Observer: one sample completed its
// generation-to-receipt journey; latencyUS is the end-to-end delay.
func (c *Collector) SampleDelivered(t float64, s resources.Sample, latencyUS float64) {
	if c.Metrics != nil {
		c.Metrics.Delivered.Add(1)
		c.Metrics.Latency.Observe(latencyUS)
	}
	if c.Flow != nil {
		c.Flow.SampleDelivered(t, s, latencyUS)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvSampleDelivered, TUS: s.GenTime, DurUS: latencyUS, Node: s.Node, Proc: s.Proc, Seq: s.Seq})
	}
}

// SampleLost implements procs.Observer: one sample left the system
// without reaching the main process (thinning, crash, link loss, or an
// exhausted retransmission budget).
func (c *Collector) SampleLost(node int, t float64, s resources.Sample, reason procs.LossReason) {
	if c.Metrics != nil {
		c.Metrics.Lost.Add(1)
	}
	if c.Flow != nil {
		c.Flow.SampleLost(node, t, s, reason)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvSampleLost, TUS: t, Unit: node, Node: s.Node, Proc: s.Proc, Seq: s.Seq, N: int(reason)})
	}
}

// DaemonCrashed implements procs.Observer: a daemon went down, losing
// lostSamples of in-memory state.
func (c *Collector) DaemonCrashed(node int, t float64, lostSamples int) {
	if c.Metrics != nil {
		c.Metrics.Crashes.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvDaemonCrash, TUS: t, Node: node, N: lostSamples})
	}
}

// DaemonRestored implements procs.Observer: a crashed daemon came back.
func (c *Collector) DaemonRestored(node int, t float64) {
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvDaemonRestore, TUS: t, Node: node})
	}
}

// MessageRetransmitted implements procs.Observer: a resilient uplink
// retried an unacknowledged message (attempt counts from 1).
func (c *Collector) MessageRetransmitted(node int, t float64, attempt int) {
	if c.Metrics != nil {
		c.Metrics.Retransmits.Add(1)
	}
	if c.Sink != nil {
		c.Sink.addEvent(Event{Kind: EvRetransmit, TUS: t, Node: node, N: attempt})
	}
}
