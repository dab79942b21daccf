package faults

import (
	"math"

	"rocc/internal/des"
	"rocc/internal/forward"
	"rocc/internal/procs"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

// Link is one daemon uplink (to a parent daemon or to the main process)
// with fault injection and, optionally, ack/timeout/retransmission. It
// sits between a daemon's network-transmission completion and the
// destination's receive: the model routes each transmitted message
// through Send instead of delivering it directly.
//
// With Resilience.Retransmit enabled, each message gets a link-local id;
// the receiver acknowledges delivery (acks travel back after AckDelay and
// may themselves be lost), and an unacknowledged message is retransmitted
// after an exponentially backed-off timeout, up to RetryBudget times.
// Retransmissions re-occupy the network (the sender pays the transit cost
// again) and the receiver discards duplicates by id, so at-most-once
// delivery is preserved end to end.
//
// The link owns each message it is sent until the message leaves it.
// Every delivery — first try, injected duplicate or retransmission — is
// a pooled copy that the receiver takes over (or the link releases, if
// the receiver refuses or discards it). The link releases the original
// when it is lost on an unprotected link, at the end of an unprotected
// attempt, and on acknowledgement or give-up on a resilient one. Its
// per-message records are free-listed with their closures bound once, so
// a fault-free resilient send allocates nothing in steady state.
type Link struct {
	sim  *des.Simulator
	plan *Plan
	node int // sending node, for accounting and cost streams

	net  *resources.Network
	cost forward.CostModel
	pool *forward.MessagePool

	r     *rng.Stream // fault decisions (loss/dup/delay/ack-loss)
	costR *rng.Stream // retransmission network-cost draws

	// dst delivers a message to the receiver; it reports false when the
	// receiver refused it (crashed daemon), which suppresses the ack so
	// the retransmission timer covers the outage. A refused message stays
	// with the link.
	dst func(msg *forward.Message) bool

	// obs, when non-nil, is notified of each retransmission attempt.
	obs procs.Observer

	nextID  uint64
	pending map[uint64]*pendingMsg // unacknowledged messages; nil when unprotected

	pendingFree []*pendingMsg
	delayedFree []*delayedCopy
	ackFree     []*ackMsg

	// Accounting.
	LossInjected  int // deliveries destroyed in transit
	DupInjected   int // extra deliveries injected
	DelayInjected int // deliveries given an extra transit delay
	AcksLost      int // acknowledgements destroyed
	Retransmits   int // retransmission attempts made
	GiveUps       int // messages abandoned after the retry budget
	SamplesLost   int // samples in messages lost for good on this link
	DupDiscarded  int // duplicate deliveries suppressed at the receiver

	recovered    int     // messages that needed >= 1 retransmission to arrive
	recoveredSum float64 // total first-send-to-ack time of recovered messages
	recoveredMax float64
}

// pendingMsg is one message on a resilient link. It holds the original
// for resending until the message is acknowledged or abandoned (done).
// The record lives on while copies are still on their way — delayed, or
// being retransmitted — because it carries the delivered flag that
// duplicate suppression checks when they land.
type pendingMsg struct {
	id        uint64
	msg       *forward.Message // nil once done
	firstSent des.Time
	attempts  int // retransmissions so far (0 = only the original send)
	timer     *des.Event
	delivered bool // a copy reached the receiver
	done      bool // acknowledged or abandoned
	resending bool // a retransmission occupies the network
	delayed   int  // delayed copies not yet arrived

	timeoutFn func() // calls Link.timeout(this)
	resentFn  func() // calls Link.resent(this)
}

// delayedCopy is one delivery given an extra transit delay; p is nil on an
// unprotected link.
type delayedCopy struct {
	p   *pendingMsg
	msg *forward.Message
	fn  func() // calls Link.arriveDelayed(this)
}

// ackMsg is one acknowledgement travelling back to the sender.
type ackMsg struct {
	id uint64
	fn func() // calls Link.ack(id) and recycles this record
}

// NewLink creates an uplink for the daemon on node. idx disambiguates
// multiple links per node (unused today; every node has one uplink). pool
// is the model's message pool; dst delivers to the receiver and reports
// acceptance.
func (inj *Injector) NewLink(node, idx int, net *resources.Network, cost forward.CostModel, pool *forward.MessagePool, dst func(*forward.Message) bool) *Link {
	l := &Link{
		sim:   inj.Sim,
		plan:  &inj.Plan,
		node:  node,
		net:   net,
		cost:  cost,
		pool:  pool,
		r:     inj.root.Derive(streamID(streamLink, node, idx)),
		costR: inj.root.Derive(streamID(streamLinkCost, node, idx)),
		dst:   dst,
	}
	if inj.Plan.Resilience.Retransmit {
		l.pending = make(map[uint64]*pendingMsg)
	}
	inj.Links = append(inj.Links, l)
	return l
}

// Pending returns the number of unacknowledged messages (the retry
// queue); the degradation controller watches this as a pressure signal.
func (l *Link) Pending() int { return len(l.pending) }

// ResetAccounting clears the link's counters without disturbing pending
// retransmissions.
func (l *Link) ResetAccounting() {
	l.LossInjected, l.DupInjected, l.DelayInjected, l.AcksLost = 0, 0, 0, 0
	l.Retransmits, l.GiveUps, l.SamplesLost, l.DupDiscarded = 0, 0, 0, 0
	l.recovered, l.recoveredSum, l.recoveredMax = 0, 0, 0
}

// Send routes one transmitted message through the link's fault filter
// toward the receiver, taking ownership of it. Called when the sender's
// network occupancy for the original transmission completes.
func (l *Link) Send(msg *forward.Message) {
	msg.MustBeLive("faults.Link.Send")
	if l.pending == nil {
		l.attempt(nil, msg)
		return
	}
	p := l.newPending()
	p.id, p.msg, p.firstSent = l.nextID, msg, l.sim.Now()
	l.nextID++
	l.pending[p.id] = p
	l.attempt(p, msg)
}

// attempt is one delivery try of msg: the fault filter may destroy,
// duplicate, or delay it. On a resilient link p holds msg for resending
// and an RTO timer backs the try; an unprotected link (p nil) is done
// with msg once the try is made.
func (l *Link) attempt(p *pendingMsg, msg *forward.Message) {
	msg.MustBeLive("faults.Link.attempt")
	lost := l.plan.Loss > 0 && l.r.Bernoulli(l.plan.Loss)
	if lost {
		l.LossInjected++
		if p == nil {
			l.SamplesLost += len(msg.Samples) // unprotected: gone for good
			if l.obs != nil {
				for _, s := range msg.Samples {
					l.obs.SampleLost(l.node, l.sim.Now(), s, procs.LossLink)
				}
			}
		}
	} else {
		delay := des.Time(0)
		if l.plan.DelayProb > 0 && l.r.Bernoulli(l.plan.DelayProb) {
			l.DelayInjected++
			delay = l.plan.Delay.Sample(l.r)
		}
		l.deliverAfter(delay, p, l.pool.Copy(msg))
		if l.plan.Dup > 0 && l.r.Bernoulli(l.plan.Dup) {
			l.DupInjected++
			l.deliverAfter(delay, p, l.pool.Copy(msg))
		}
	}
	if p == nil {
		l.pool.Put(msg)
		return
	}
	rto := float64(l.plan.Resilience.RTO * math.Pow(l.plan.Resilience.Backoff, float64(p.attempts)))
	p.timer = l.sim.Schedule(rto, p.timeoutFn)
}

func (l *Link) deliverAfter(delay des.Time, p *pendingMsg, msg *forward.Message) {
	if delay <= 0 {
		l.arrive(p, msg)
		return
	}
	d := l.newDelayed()
	d.p, d.msg = p, msg
	if p != nil {
		p.delayed++
	}
	l.sim.Schedule(delay, d.fn)
}

// arriveDelayed lands one delayed copy and recycles its record.
func (l *Link) arriveDelayed(d *delayedCopy) {
	p, msg := d.p, d.msg
	*d = delayedCopy{fn: d.fn}
	l.delayedFree = append(l.delayedFree, d)
	l.arrive(p, msg)
	if p != nil {
		p.delayed--
		l.recycle(p)
	}
}

// arrive is a delivery reaching the receiver's side of the link.
func (l *Link) arrive(p *pendingMsg, msg *forward.Message) {
	msg.MustBeLive("faults.Link.arrive")
	if p != nil && p.delivered {
		// Duplicate (injected, or a retransmission racing its original):
		// discard, but re-ack in case the earlier ack was lost.
		l.DupDiscarded++
		l.pool.Put(msg)
		l.sendAck(p.id)
		return
	}
	if !l.dst(msg) {
		// Receiver down: with retransmission the timer covers the outage;
		// unprotected, the message is gone for good. The existing
		// SamplesLost counter deliberately stays untouched on the
		// unprotected path (it predates this hook), but provenance needs
		// the closure.
		if p == nil && l.obs != nil {
			for _, s := range msg.Samples {
				l.obs.SampleLost(l.node, l.sim.Now(), s, procs.LossCrash)
			}
		}
		l.pool.Put(msg)
		return
	}
	if p != nil {
		p.delivered = true
		l.sendAck(p.id)
	}
}

func (l *Link) sendAck(id uint64) {
	if l.plan.AckLoss > 0 && l.r.Bernoulli(l.plan.AckLoss) {
		l.AcksLost++
		return
	}
	a := l.newAck()
	a.id = id
	l.sim.Schedule(l.plan.Resilience.AckDelay, a.fn)
}

func (l *Link) ack(id uint64) {
	p, ok := l.pending[id]
	if !ok {
		return
	}
	delete(l.pending, id)
	if p.timer != nil { // nil while a retransmission is on the wire
		p.timer.Cancel()
		p.timer = nil
	}
	if p.attempts > 0 {
		l.recovered++
		rt := l.sim.Now() - p.firstSent
		l.recoveredSum += rt
		if rt > l.recoveredMax {
			l.recoveredMax = rt
		}
	}
	l.finish(p)
}

// timeout fires when a delivery attempt went unacknowledged.
func (l *Link) timeout(p *pendingMsg) {
	p.timer = nil
	if p.attempts >= l.plan.Resilience.RetryBudget {
		delete(l.pending, p.id)
		l.GiveUps++
		l.SamplesLost += len(p.msg.Samples)
		if l.obs != nil {
			for _, s := range p.msg.Samples {
				l.obs.SampleLost(l.node, l.sim.Now(), s, procs.LossGiveUp)
			}
		}
		l.finish(p)
		return
	}
	p.attempts++
	l.Retransmits++
	if l.obs != nil {
		l.obs.MessageRetransmitted(l.node, l.sim.Now(), p.attempts)
	}
	// The retransmission re-occupies the network for a fresh transit cost.
	p.resending = true
	l.net.Submit(procs.OwnerPd, l.cost.MsgNet(l.costR, len(p.msg.Samples)), p.resentFn)
}

// resent runs when a retransmission's network occupancy completes; a
// message acknowledged meanwhile is not tried again.
func (l *Link) resent(p *pendingMsg) {
	p.resending = false
	if p.done {
		l.recycle(p)
		return
	}
	l.attempt(p, p.msg)
}

// finish ends a message's life on a resilient link: it was acknowledged
// or abandoned, so the original is released.
func (l *Link) finish(p *pendingMsg) {
	p.done = true
	l.pool.Put(p.msg)
	p.msg = nil
	l.recycle(p)
}

// recycle returns p to the free list once it is done and no copy of its
// message can still reach the receiver.
func (l *Link) recycle(p *pendingMsg) {
	if !p.done || p.resending || p.delayed > 0 {
		return
	}
	*p = pendingMsg{timeoutFn: p.timeoutFn, resentFn: p.resentFn}
	l.pendingFree = append(l.pendingFree, p)
}

func (l *Link) newPending() *pendingMsg {
	if n := len(l.pendingFree); n > 0 {
		p := l.pendingFree[n-1]
		l.pendingFree[n-1] = nil
		l.pendingFree = l.pendingFree[:n-1]
		return p
	}
	p := &pendingMsg{}
	p.timeoutFn = func() { l.timeout(p) }
	p.resentFn = func() { l.resent(p) }
	return p
}

func (l *Link) newDelayed() *delayedCopy {
	if n := len(l.delayedFree); n > 0 {
		d := l.delayedFree[n-1]
		l.delayedFree[n-1] = nil
		l.delayedFree = l.delayedFree[:n-1]
		return d
	}
	d := &delayedCopy{}
	d.fn = func() { l.arriveDelayed(d) }
	return d
}

func (l *Link) newAck() *ackMsg {
	if n := len(l.ackFree); n > 0 {
		a := l.ackFree[n-1]
		l.ackFree[n-1] = nil
		l.ackFree = l.ackFree[:n-1]
		return a
	}
	a := &ackMsg{}
	a.fn = func() {
		id := a.id
		l.ackFree = append(l.ackFree, a)
		l.ack(id)
	}
	return a
}
