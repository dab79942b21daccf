package procs

import (
	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// PdDaemon is a Paradyn daemon: it collects instrumentation samples from
// the pipes of its local application processes and forwards them toward
// the main Paradyn process under the CF or BF policy. Under tree
// forwarding a non-leaf daemon additionally receives, merges, and relays
// messages from its children.
//
// The daemon is a single OS process: it does one piece of CPU work at a
// time, and every message costs CPU (collection plus the forwarding system
// call) followed by network occupancy to transmit.
//
// The fault layer (internal/faults) can crash the daemon transiently
// (Crash/Restore) and engage graceful degradation via Thinning; both are
// inert in the fault-free baseline.
type PdDaemon struct {
	Sim *des.Simulator
	CPU *resources.CPU
	Net *resources.Network
	R   *rng.Stream

	Pipes []*resources.Pipe
	Cost  forward.CostModel
	Node  int

	// Strategy schedules forwarding: each time the daemon is free it asks
	// the strategy whether to forward a batch, keep accumulating, or flush
	// everything, and reports completion feedback for every batch it
	// collects locally. It must be set before Start, and each daemon must
	// own its instance (the model wires one Clone per daemon).
	Strategy forward.Strategy

	// Deliver routes a fully transmitted message to its destination (the
	// parent daemon's Receive, the main process, or a fault-injecting
	// uplink); wired up by the model. The callee takes ownership of msg.
	Deliver func(msg *forward.Message)

	// Msgs supplies the messages the daemon fills and takes back the ones
	// it drops; the model shares one pool across its daemons, uplinks and
	// main process. It must be set before Start.
	Msgs *forward.MessagePool

	// FlushTimeout, when positive, forwards a partial batch if the oldest
	// unforwarded sample has waited this long (microseconds). Zero keeps
	// the pure count-based BF of the paper's model.
	FlushTimeout float64

	// Thinning, when > 1, keeps only one of every Thinning collected
	// samples — the graceful-degradation mechanism the fault layer
	// engages under overload. Thinned samples still free pipe space (the
	// daemon read them); they are just not forwarded. 0 or 1 forwards
	// everything.
	Thinning int

	// Obs, when non-nil, receives batch/forward/crash notifications.
	Obs Observer

	busy       bool
	down       bool
	epoch      int // bumped on Crash; stale CPU callbacks check it
	relayQ     des.FIFO[*forward.Message]
	nextPipe   int
	thinSeq    int
	flushTimer *des.Event

	// jobFree recycles job records (see daemonJob).
	jobFree []*daemonJob

	// Metrics.
	MessagesForwarded int
	SamplesForwarded  int // includes relayed samples (counted per hop)
	SamplesCollected  int // distinct samples drained from local pipes
	MessagesMerged    int
	SamplesThinned    int // samples discarded by degradation thinning
	CrashCount        int
	CrashLostSamples  int // samples lost to crashes (relay queue, in-prep batch)
}

// ResetAccounting clears the daemon's metric counters; used for warmup
// (initial-transient) removal.
func (d *PdDaemon) ResetAccounting() {
	d.MessagesForwarded = 0
	d.SamplesForwarded = 0
	d.SamplesCollected = 0
	d.MessagesMerged = 0
	d.SamplesThinned = 0
	d.CrashCount = 0
	d.CrashLostSamples = 0
}

// Release gives the relay queue's ring to des's process-wide pool (see
// des.FIFO.Release) once the run is over; queued relays are dropped. The
// daemon's pipes are released separately. The daemon must not be used
// again.
func (d *PdDaemon) Release() { d.relayQ.Release() }

// Start registers the daemon's pipe wake-ups and seeds cost-model-aware
// strategies.
func (d *PdDaemon) Start() {
	if cs, ok := d.Strategy.(forward.CostSeeder); ok {
		cs.SeedFromCost(d.Cost)
	}
	for _, p := range d.Pipes {
		p.SetOnData(d.Wake)
	}
}

// Down reports whether the daemon is currently crashed.
func (d *PdDaemon) Down() bool { return d.down }

// Crash takes the daemon down transiently. In-memory state is lost: the
// relay queue and any batch whose collection CPU work is in progress are
// discarded (pipes are kernel buffers and survive, as does a message whose
// network transmission already started). Messages arriving while down are
// dropped without acknowledgement, so a resilient uplink retransmits them.
func (d *PdDaemon) Crash() {
	if d.down {
		return
	}
	d.down = true
	d.epoch++
	d.CrashCount++
	before := d.CrashLostSamples
	for i := 0; i < d.relayQ.Len(); i++ {
		msg := *d.relayQ.At(i)
		d.crashLoss(msg.Samples)
		d.Msgs.Put(msg)
	}
	lost := d.CrashLostSamples - before
	d.relayQ.Clear()
	d.cancelFlush()
	d.busy = false
	if d.Obs != nil {
		d.Obs.DaemonCrashed(d.Node, d.Sim.Now(), lost)
	}
}

// Restore brings a crashed daemon back up; it resumes draining its pipes.
func (d *PdDaemon) Restore() {
	if !d.down {
		return
	}
	d.down = false
	if d.Obs != nil {
		d.Obs.DaemonRestored(d.Node, d.Sim.Now())
	}
	d.Wake()
}

// capacity returns the daemon's total buffering — pipe capacities plus
// one blocked writer per pipe — the clamp that keeps any batch target
// reachable so forwarding cannot deadlock.
func (d *PdDaemon) capacity() int {
	capTotal := 0
	for _, p := range d.Pipes {
		capTotal += p.Cap() + 1 // +1: one blocked writer per pipe can refill
	}
	return capTotal
}

func (d *PdDaemon) available() int {
	n := 0
	for _, p := range d.Pipes {
		n += p.Len() + p.Blocked()
	}
	return n
}

// Receive accepts a message from a child daemon (tree forwarding) and
// takes ownership of it. A crashed daemon drops the message (no
// acknowledgement is generated).
func (d *PdDaemon) Receive(msg *forward.Message) {
	msg.MustBeLive("procs.PdDaemon.Receive")
	if d.down {
		d.crashLoss(msg.Samples)
		d.Msgs.Put(msg)
		return
	}
	if d.Obs != nil {
		d.Obs.MessageReceived(d.Node, d.Sim.Now(), msg.Samples, msg.Hops)
	}
	d.relayQ.Push(msg)
	d.Wake()
}

// Accept is Receive with delivery feedback for resilient links: it reports
// false — message refused, no ack — while the daemon is down, so the
// sender's retransmission timer covers the outage. A refused message stays
// with the caller.
func (d *PdDaemon) Accept(msg *forward.Message) bool {
	msg.MustBeLive("procs.PdDaemon.Accept")
	if d.down {
		return false
	}
	d.Receive(msg)
	return true
}

// Wake prompts the daemon to look for work. Safe to call at any time.
func (d *PdDaemon) Wake() {
	if d.busy || d.down {
		return
	}
	// Relaying children's data takes priority: it keeps the tree draining.
	if d.relayQ.Len() > 0 {
		j := d.newJob()
		j.epoch, j.msg, j.relay = d.epoch, d.relayQ.Pop(), true
		j.msg.MustBeLive("procs.PdDaemon relay job")
		d.busy = true
		d.CPU.Submit(OwnerPd, d.Cost.MergeCPU(d.R), j.cpuDone)
		return
	}
	capTotal := d.capacity()
	strat := d.Strategy
	for {
		avail := d.available()
		if avail == 0 {
			break
		}
		act, want := strat.Decide(d.Sim.Now(), avail, capTotal)
		switch act {
		case forward.Accumulate:
			// Partial batch pending: arm the flush timer if configured.
			if d.FlushTimeout > 0 && d.flushTimer == nil {
				d.flushTimer = d.Sim.Schedule(d.FlushTimeout, d.flush)
			}
			return
		case forward.FlushAll:
			want = avail
		default: // ForwardNow: clamp to what is reachable
			if want < 1 {
				want = 1
			}
			if want > capTotal && capTotal > 0 {
				want = capTotal
			}
		}
		msg := d.drain(want)
		if len(msg.Samples) == 0 {
			d.Msgs.Put(msg)
			continue // batch fully thinned away; keep draining
		}
		d.cancelFlush()
		d.collect(msg)
		return
	}
}

// observe reports one locally collected batch's completion feedback to
// the strategy, at the simulated instant the message is handed to the
// network. Every input is a simulated-clock or buffer-state quantity, so
// feedback-driven strategies remain byte-reproducible.
func (d *PdDaemon) observe(batch []resources.Sample) {
	now := d.Sim.Now()
	newest, oldest := batch[0].GenTime, batch[0].GenTime
	for _, s := range batch[1:] {
		if s.GenTime > newest {
			newest = s.GenTime
		}
		if s.GenTime < oldest {
			oldest = s.GenTime
		}
	}
	d.Strategy.Observe(forward.Feedback{
		Now:         now,
		Samples:     len(batch),
		NewestAgeUS: now - newest,
		OldestAgeUS: now - oldest,
		Buffered:    d.available(),
		Capacity:    d.capacity(),
	})
}

// flush forwards whatever samples are buffered, regardless of batch size.
func (d *PdDaemon) flush() {
	d.flushTimer = nil
	if d.busy || d.down || d.available() == 0 {
		return
	}
	msg := d.drain(d.available())
	if len(msg.Samples) == 0 {
		d.Msgs.Put(msg)
		return
	}
	d.collect(msg)
}

// collect starts the CPU work of collecting msg's batch.
func (d *PdDaemon) collect(msg *forward.Message) {
	j := d.newJob()
	j.epoch, j.msg = d.epoch, msg
	d.busy = true
	d.CPU.Submit(OwnerPd, d.Cost.MsgCPU(d.R, len(msg.Samples)), j.cpuDone)
}

func (d *PdDaemon) cancelFlush() {
	if d.flushTimer != nil {
		d.flushTimer.Cancel()
		d.flushTimer = nil
	}
}

// drain gathers up to want samples round-robin across the daemon's pipes
// into a pooled message, then applies degradation thinning to the
// collected batch. The message may come back empty.
func (d *PdDaemon) drain(want int) *forward.Message {
	msg := d.Msgs.Get()
	msg.FromNode, msg.Hops = d.Node, 1
	out := msg.Samples
	if len(d.Pipes) == 0 {
		return msg
	}
	empty := 0
	for len(out) < want && empty < len(d.Pipes) {
		p := d.Pipes[d.nextPipe%len(d.Pipes)]
		d.nextPipe++
		if s, ok := p.Get(); ok {
			out = append(out, s)
			empty = 0
		} else {
			empty++
		}
	}
	d.SamplesCollected += len(out)
	if d.Thinning > 1 {
		kept := out[:0]
		for _, s := range out {
			if d.thinSeq%d.Thinning == 0 {
				kept = append(kept, s)
			} else if d.Obs != nil {
				d.Obs.SampleLost(d.Node, d.Sim.Now(), s, LossThinned)
			}
			d.thinSeq++
		}
		d.SamplesThinned += len(out) - len(kept)
		out = kept
	}
	if d.Obs != nil && len(out) > 0 {
		d.Obs.BatchCollected(d.Node, d.Sim.Now(), len(out))
	}
	msg.Samples = out
	return msg
}

// daemonJob carries one message through the daemon: the CPU work that
// produces it (merging a relayed message, or collecting a local batch),
// then its network transfer. The job owns the message until delivery.
// Records are free-listed per daemon with both completion closures bound
// once, and messages come from the pool, so the sample path allocates
// nothing in steady state. A crash does not withdraw a job from the CPU,
// so after Restore a stale job and a new one can be outstanding together
// and finish in either order; each owns its record and epoch.
type daemonJob struct {
	epoch   int
	msg     *forward.Message
	relay   bool // merging a child's message, not collecting a local batch
	deliver func(*forward.Message)
	cpuDone func() // calls PdDaemon.jobDone(this)
	netDone func() // calls PdDaemon.sent(this)
}

func (d *PdDaemon) newJob() *daemonJob {
	if n := len(d.jobFree); n > 0 {
		j := d.jobFree[n-1]
		d.jobFree[n-1] = nil
		d.jobFree = d.jobFree[:n-1]
		return j
	}
	j := &daemonJob{}
	j.cpuDone = func() { d.jobDone(j) }
	j.netDone = func() { d.sent(j) }
	return j
}

// release clears a record's payload and returns it to the free list.
func (d *PdDaemon) release(j *daemonJob) {
	*j = daemonJob{cpuDone: j.cpuDone, netDone: j.netDone}
	d.jobFree = append(d.jobFree, j)
}

// jobDone runs when a job's CPU work completes: a job started before the
// latest crash loses its samples; otherwise the message goes out.
func (d *PdDaemon) jobDone(j *daemonJob) {
	if d.epoch != j.epoch { // crashed mid-merge or mid-collection
		d.crashLoss(j.msg.Samples)
		d.Msgs.Put(j.msg)
		d.release(j)
		return
	}
	if j.relay {
		d.MessagesMerged++
		j.msg.Hops++
	} else {
		d.observe(j.msg.Samples)
	}
	d.send(j)
	d.busy = false
	d.Wake()
}

// crashLoss accounts samples discarded by a crash.
func (d *PdDaemon) crashLoss(samples []resources.Sample) {
	d.CrashLostSamples += len(samples)
	if d.Obs != nil {
		for _, s := range samples {
			d.Obs.SampleLost(d.Node, d.Sim.Now(), s, LossCrash)
		}
	}
}

// send transmits j's message over the network; delivery happens when the
// network occupancy completes.
func (d *PdDaemon) send(j *daemonJob) {
	msg := j.msg
	d.MessagesForwarded++
	d.SamplesForwarded += len(msg.Samples)
	if d.Obs != nil {
		d.Obs.MessageForwarded(d.Node, d.Sim.Now(), msg.Samples, msg.Hops)
	}
	netLen := d.Cost.MsgNet(d.R, len(msg.Samples))
	j.deliver = d.Deliver
	d.Net.Submit(OwnerPd, netLen, j.netDone)
}

// sent runs when j's transfer completes and hands the message to Deliver.
// The record is recycled before delivery, which may start further daemon
// work.
func (d *PdDaemon) sent(j *daemonJob) {
	msg, deliver := j.msg, j.deliver
	d.release(j)
	if deliver == nil {
		d.Msgs.Put(msg)
		return
	}
	deliver(msg)
}
