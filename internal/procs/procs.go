// Package procs implements the process behavior models of the ROCC model
// (Figures 6 and 7 of the paper): instrumented application processes that
// alternate Computation and Communication states, Paradyn daemons that
// collect samples from pipes and forward them under the CF or BF policy,
// the main Paradyn process that consumes forwarded data, and the open
// arrival streams of the PVM daemon and other user/system processes.
package procs

import "rocc/internal/resources"

// Owner-class labels used for resource-occupancy accounting. Direct IS
// overhead is the occupancy attributed to OwnerPd plus OwnerMain.
const (
	OwnerApp   = "app"
	OwnerPd    = "pd"
	OwnerPvm   = "pvmd"
	OwnerOther = "other"
	OwnerMain  = "paradyn"
)

// LossReason classifies why a sample left the system without reaching
// the main process. The provenance engine uses it to close in-flight
// records; the trace sink records it on EvSampleLost events.
type LossReason int

const (
	// LossThinned: discarded by graceful-degradation thinning in a
	// daemon's drain path.
	LossThinned LossReason = iota
	// LossCrash: discarded by a daemon crash (relay queue, in-prep batch,
	// message received while down, or delivery into a crashed receiver
	// over an unprotected link).
	LossCrash
	// LossLink: lost in transit on an unprotected (non-resilient) link.
	LossLink
	// LossGiveUp: a resilient link exhausted its retransmission budget.
	LossGiveUp
)

// String returns the loss reason's short label.
func (r LossReason) String() string {
	switch r {
	case LossThinned:
		return "thinned"
	case LossCrash:
		return "crash"
	case LossLink:
		return "link"
	case LossGiveUp:
		return "giveup"
	default:
		return "unknown"
	}
}

// Observer receives sample-lifecycle notifications from the process
// models: the full path of instrumentation data from generation at an
// application process to receipt at the main Paradyn process, plus
// daemon fault events. All times are simulated microseconds. Every hook
// site is nil-guarded, so an unattached observer costs one branch.
//
// Implementations must only record — they must not call back into the
// process models or the simulator. Batch slices passed to
// MessageForwarded, MessageReceived and MessageDelivered are owned by the
// caller and must not be retained past the call.
type Observer interface {
	// SampleGenerated fires when an application process writes a sample;
	// blocked reports that the write stalled on a full pipe (§4.3.3).
	SampleGenerated(t float64, s resources.Sample, blocked bool)
	// BatchCollected fires when a daemon finishes draining one batch of
	// samples from its local pipes (after degradation thinning).
	BatchCollected(node int, t float64, samples int)
	// MessageForwarded fires when a daemon starts transmitting a message
	// carrying batch; hops is the message's forwarding depth so far.
	MessageForwarded(node int, t float64, batch []resources.Sample, hops int)
	// MessageReceived fires when a relay daemon accepts a message from a
	// child for merging (tree forwarding only; direct-to-main delivery
	// fires MessageDelivered instead).
	MessageReceived(node int, t float64, batch []resources.Sample, hops int)
	// MessageDelivered fires once per message the main process receives,
	// carrying the message's samples: each one's end-to-end monitoring
	// latency is t − s.GenTime. One hook per message, not per sample, is
	// batch-and-forward applied to the observer itself.
	MessageDelivered(t float64, batch []resources.Sample, hops int)
	// SampleLost fires once per sample that leaves the system without
	// reaching the main process; node is the daemon (or link endpoint)
	// where the loss happened.
	SampleLost(node int, t float64, s resources.Sample, reason LossReason)
	// DaemonCrashed fires when a daemon goes down; lostSamples counts the
	// in-memory samples discarded at the crash instant.
	DaemonCrashed(node int, t float64, lostSamples int)
	// DaemonRestored fires when a crashed daemon comes back up.
	DaemonRestored(node int, t float64)
	// MessageRetransmitted fires when a resilient uplink retries an
	// unacknowledged message; attempt counts from 1.
	MessageRetransmitted(node int, t float64, attempt int)
}
