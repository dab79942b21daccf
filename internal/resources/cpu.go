// Package resources models the shared system resources of the ROCC model:
// CPUs scheduled round-robin with a fixed quantum, the interconnect
// (a contended single-channel network for NOW/SMP or a contention-free
// direct network for MPP), and the bounded kernel pipes through which
// instrumented application processes hand samples to a Paradyn daemon.
//
// Every resource accounts occupancy time per owner class, which is exactly
// the "resource occupancy" the ROCC model is named for: direct IS overhead
// is the occupancy attributed to instrumentation processes.
package resources

import (
	"math"

	"rocc/internal/des"
)

// epsilon below which a remaining CPU demand counts as finished, guarding
// against float round-off in quantum arithmetic.
const epsilon = 1e-9

// CPU is a multi-core processor scheduled with a preemptive round-robin
// policy and fixed scheduling quantum (10,000 microseconds in Table 2).
// Requests longer than the quantum are timesliced; at each expiry the
// request goes to the back of the ready queue, modeling fair sharing
// between application and instrumentation processes on a node.
type CPU struct {
	sim     *des.Simulator
	cores   int
	quantum float64

	ready   des.FIFO[cpuReq]
	running int

	busy      tally
	busyTotal float64

	// free holds idle core slots. A request waits in ready by value and
	// takes a slot only while it holds a core, so at most cores slots ever
	// exist and the per-slice hot path (Submit → dispatch → slice expiry)
	// allocates nothing once they do and the ready queue has reached its
	// peak length.
	free []*cpuSlot

	// OnOccupancy, if set, observes every completed occupancy slice
	// (owner, slice start time, slice length) — the hook the
	// observability trace uses to emit AIX-like records.
	OnOccupancy func(owner string, start, length float64)
}

// cpuReq is a request waiting in the ready queue or holding a core.
type cpuReq struct {
	owner     string
	remaining float64
	onDone    func()
}

// cpuSlot is a core running one request's current quantum slice.
type cpuSlot struct {
	req   cpuReq
	slice float64 // current quantum slice, set by dispatch
	fire  func()  // calls CPU.complete(this); bound once, reused forever
}

// NewCPU returns a CPU with the given core count and scheduling quantum in
// microseconds. It panics on non-positive arguments.
func NewCPU(sim *des.Simulator, cores int, quantum float64) *CPU {
	c := &CPU{}
	c.Init(sim, cores, quantum)
	return c
}

// Init overwrites c with the CPU NewCPU(sim, cores, quantum) returns, so a
// caller can keep CPUs in storage it owns. It panics where NewCPU does.
func (c *CPU) Init(sim *des.Simulator, cores int, quantum float64) {
	if cores <= 0 {
		panic("resources: CPU needs at least one core")
	}
	if quantum <= 0 {
		panic("resources: CPU quantum must be positive")
	}
	*c = CPU{sim: sim, cores: cores, quantum: quantum}
}

// Submit enqueues a CPU occupancy request of the given length for owner.
// onDone runs when the request has received its full service demand; it may
// be nil. Zero-length requests complete immediately.
func (c *CPU) Submit(owner string, length float64, onDone func()) {
	if length < 0 || math.IsNaN(length) {
		panic("resources: negative or NaN CPU request")
	}
	if length <= epsilon {
		if onDone != nil {
			onDone()
		}
		return
	}
	c.ready.Push(cpuReq{owner: owner, remaining: length, onDone: onDone})
	c.dispatch()
}

func (c *CPU) dispatch() {
	for c.running < c.cores && c.ready.Len() > 0 {
		var slot *cpuSlot
		if n := len(c.free); n > 0 {
			slot = c.free[n-1]
			c.free[n-1] = nil
			c.free = c.free[:n-1]
		} else {
			slot = &cpuSlot{}
			slot.fire = func() { c.complete(slot) }
		}
		slot.req = c.ready.Pop()
		c.running++
		slice := slot.req.remaining
		if slice > c.quantum {
			slice = c.quantum
		}
		slot.slice = slice
		c.sim.Schedule(slice, slot.fire)
	}
}

// complete runs at a slice's expiry: account the slice, free the core
// slot, then finish the request or requeue its remainder.
func (c *CPU) complete(slot *cpuSlot) {
	req, slice := slot.req, slot.slice
	slot.req = cpuReq{}
	c.free = append(c.free, slot)
	c.busy.add(req.owner, slice)
	c.busyTotal += slice
	if c.OnOccupancy != nil {
		c.OnOccupancy(req.owner, c.sim.Now()-slice, slice)
	}
	req.remaining -= slice
	c.running--
	if req.remaining <= epsilon {
		if req.onDone != nil {
			req.onDone()
		}
	} else {
		c.ready.Push(req)
	}
	c.dispatch()
}

// Release gives the ready queue's ring to des's process-wide pool (see
// des.FIFO.Release) once the run is over; requests still waiting are
// dropped. The CPU must not be used again.
func (c *CPU) Release() { c.ready.Release() }

// QueueLen returns the number of requests waiting (not running).
func (c *CPU) QueueLen() int { return c.ready.Len() }

// Running returns the number of requests currently holding a core.
func (c *CPU) Running() int { return c.running }

// Busy returns accumulated occupancy time for an owner class, in
// microseconds of CPU time.
func (c *CPU) Busy(owner string) float64 { return c.busy.get(owner) }

// BusyTotal returns accumulated occupancy across all owners.
func (c *CPU) BusyTotal() float64 { return c.busyTotal }

// ResetAccounting clears occupancy accounting without disturbing queued or
// running requests; used for warmup (initial-transient) removal.
func (c *CPU) ResetAccounting() {
	c.busy.reset()
	c.busyTotal = 0
}
