package resources

import (
	"math"

	"rocc/internal/des"
)

// Network models the interconnect as a resource accepting occupancy
// requests. Two service disciplines cover the three architectures of the
// study:
//
//   - Contended: a single FIFO channel (shared Ethernet for NOW, the shared
//     bus for SMP). Requests queue; §4.3.3 of the paper shows this queue
//     becoming the bottleneck for SMP systems with >= 32 nodes.
//   - Contention-free: every transfer proceeds at full speed in parallel
//     (the "high-speed, contention-free network" assumed for the MPP case,
//     §4.4) — an infinite-server discipline.
type Network struct {
	sim       *des.Simulator
	contended bool

	queue   des.FIFO[*netReq]
	serving bool

	// busy accumulates per-owner occupancy time.
	busy      tally
	busyTotal float64

	// free recycles completed request records with their bound fire
	// closures, so both disciplines' transfer paths allocate nothing in
	// steady state.
	free []*netReq

	// OnOccupancy, if set, observes every completed transfer (owner,
	// start time, length) for trace recording.
	OnOccupancy func(owner string, start, length float64)
}

type netReq struct {
	owner  string
	length float64
	onDone func()
	fire   func() // calls Network.complete(this); bound once, reused forever
}

// maxReqFree caps the request free list (a burst of in-flight transfers
// must not pin memory for the rest of a run).
const maxReqFree = 1024

// NewNetwork returns a network resource. contended selects the single
// FIFO-channel discipline; otherwise transfers do not queue.
func NewNetwork(sim *des.Simulator, contended bool) *Network {
	n := &Network{}
	n.Init(sim, contended)
	return n
}

// Init overwrites n with the network NewNetwork(sim, contended) returns,
// so a caller can keep the network in storage it owns.
func (n *Network) Init(sim *des.Simulator, contended bool) {
	*n = Network{sim: sim, contended: contended}
}

// Contended reports the service discipline.
func (n *Network) Contended() bool { return n.contended }

// Submit enqueues a network occupancy request of the given length for
// owner; onDone (may be nil) runs when the transfer completes.
func (n *Network) Submit(owner string, length float64, onDone func()) {
	if length < 0 || math.IsNaN(length) {
		panic("resources: negative or NaN network request")
	}
	req := n.newReq(owner, length, onDone)
	if !n.contended {
		n.sim.Schedule(length, req.fire)
		return
	}
	n.queue.Push(req)
	n.serve()
}

func (n *Network) newReq(owner string, length float64, onDone func()) *netReq {
	if l := len(n.free); l > 0 {
		req := n.free[l-1]
		n.free[l-1] = nil
		n.free = n.free[:l-1]
		req.owner, req.length, req.onDone = owner, length, onDone
		return req
	}
	req := &netReq{owner: owner, length: length, onDone: onDone}
	req.fire = func() { n.complete(req) }
	return req
}

func (n *Network) serve() {
	if n.serving || n.queue.Len() == 0 {
		return
	}
	req := n.queue.Pop()
	n.serving = true
	n.sim.Schedule(req.length, req.fire)
}

// complete runs when a transfer's occupancy elapses: account it, recycle
// the request record, notify the submitter, and (contended mode) start the
// next queued transfer.
func (n *Network) complete(req *netReq) {
	n.account(req.owner, req.length)
	if n.contended {
		n.serving = false
	}
	done := req.onDone
	req.onDone = nil
	if len(n.free) < maxReqFree {
		n.free = append(n.free, req)
	}
	if done != nil {
		done()
	}
	if n.contended {
		n.serve()
	}
}

func (n *Network) account(owner string, length float64) {
	n.busy.add(owner, length)
	n.busyTotal += length
	if n.OnOccupancy != nil {
		n.OnOccupancy(owner, n.sim.Now()-length, length)
	}
}

// Release gives the channel queue's ring to des's process-wide pool (see
// des.FIFO.Release) once the run is over; queued transfers are dropped.
// The network must not be used again.
func (n *Network) Release() { n.queue.Release() }

// QueueLen returns the number of requests waiting (contended mode only).
func (n *Network) QueueLen() int { return n.queue.Len() }

// Busy returns accumulated channel occupancy for an owner class.
func (n *Network) Busy(owner string) float64 { return n.busy.get(owner) }

// BusyTotal returns accumulated occupancy across all owners.
func (n *Network) BusyTotal() float64 { return n.busyTotal }

// ResetAccounting clears occupancy accounting without disturbing queued or
// in-flight transfers; used for warmup (initial-transient) removal.
func (n *Network) ResetAccounting() {
	n.busy.reset()
	n.busyTotal = 0
}
