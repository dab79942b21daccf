package resources

import (
	"fmt"

	"rocc/internal/des"
)

// Sample is one instrumentation data sample flowing from an application
// process through a pipe to a Paradyn daemon and on to the main process.
type Sample struct {
	// GenTime is the simulated time the sample was generated; monitoring
	// latency is measured from here to receipt at the main Paradyn process.
	GenTime float64
	// Node and Proc identify the originating application process.
	Node, Proc int
	// Seq is the sample's sequence number within its originating process
	// (counted from run start, never reset), so (Node, Proc, Seq) is a
	// stable identity for tracing a sample's path through the system.
	Seq int
}

// PipeObserver receives pipe-level lifecycle notifications for tracing.
// depth is the buffered-sample count after the operation; oldest marks a
// DropOldest eviction (false for a discarded arrival).
type PipeObserver interface {
	PipePut(pipe int, t float64, s Sample, depth int)
	PipeBlocked(pipe int, t float64, s Sample)
	PipeDropped(pipe int, t float64, s Sample, oldest bool)
	PipeGet(pipe int, t float64, s Sample, depth int)
}

// OverflowPolicy selects what a Pipe does with a Put when it is full.
type OverflowPolicy int

const (
	// Block suspends the writer until space frees — the real write(2)
	// behavior on a full pipe, the §4.3.3 effect, and the default.
	Block OverflowPolicy = iota
	// DropNewest discards the incoming sample; the writer proceeds.
	DropNewest
	// DropOldest evicts the oldest buffered sample to admit the new one,
	// preserving the freshest data; the writer proceeds.
	DropOldest
)

// String implements fmt.Stringer.
func (o OverflowPolicy) String() string {
	switch o {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("OverflowPolicy(%d)", int(o))
}

// Pipe is the bounded kernel buffer (a Unix pipe in the real system)
// between an instrumented application process and its local Paradyn daemon.
// Under the default Block policy a Put into a full pipe blocks the writing
// application process — the effect §4.3.3 of the paper identifies at small
// sampling periods, where a full pipe stalls the application until the
// daemon drains samples. The DropNewest and DropOldest policies model
// lossy kernel buffers instead: the writer never blocks and discarded
// samples are accounted in Dropped.
type Pipe struct {
	capacity int
	limit    int // fault-injected capacity squeeze; 0 = no limit
	policy   OverflowPolicy
	items    des.FIFO[Sample]
	blocked  des.FIFO[blockedPut]

	// onData, if set, fires whenever a sample enters the pipe; the daemon
	// uses it to wake up (it may be waiting on a batch threshold, so every
	// arrival matters, not just the empty-to-non-empty transition).
	onData func()

	// clock, if set, timestamps blocked writers for wait-time accounting.
	clock func() des.Time

	// obs, if set, receives put/block/drop/get notifications; obsID
	// identifies this pipe in them. Nil-guarded: costs one branch per
	// operation when tracing is off.
	obs   PipeObserver
	obsID int

	// dropped counts samples discarded for any reason (TryPut on a full
	// pipe, DropNewest, DropOldest evictions).
	dropped    int
	droppedNew int
	droppedOld int
	puts       int

	// blockedWait accumulates the simulated time writers spent blocked on
	// a full pipe (completed waits only; see BlockedWaitTotal).
	blockedWait float64
}

type blockedPut struct {
	s          Sample
	onAccepted func()
	since      des.Time
}

// NewPipe returns a pipe with the given sample capacity (must be positive).
func NewPipe(capacity int) *Pipe {
	if capacity <= 0 {
		panic("resources: pipe capacity must be positive")
	}
	return &Pipe{capacity: capacity}
}

// Release gives the rings of the buffered samples and of the blocked
// writers to des's process-wide pool (see des.FIFO.Release) once the run
// is over; both are dropped. The pipe must not be used again.
func (p *Pipe) Release() {
	p.items.Release()
	p.blocked.Release()
}

// SetOnData registers the reader wake-up callback.
func (p *Pipe) SetOnData(fn func()) { p.onData = fn }

// SetClock registers the simulation clock used to account blocked-writer
// wait time. Without a clock, BlockedWaitTotal reports zero.
func (p *Pipe) SetClock(fn func() des.Time) { p.clock = fn }

// SetPolicy selects the overflow policy (default Block).
func (p *Pipe) SetPolicy(policy OverflowPolicy) { p.policy = policy }

// SetObserver attaches a lifecycle observer; id identifies this pipe in
// the callbacks. A nil observer detaches.
func (p *Pipe) SetObserver(id int, o PipeObserver) { p.obsID, p.obs = id, o }

// Policy returns the overflow policy.
func (p *Pipe) Policy() OverflowPolicy { return p.policy }

// SetCapacityLimit squeezes the pipe's effective capacity down to limit
// samples (clamped to at least 1), modeling transient kernel buffer
// pressure; 0 removes the limit. Raising or removing the limit admits
// blocked writers into any space that opens up.
func (p *Pipe) SetCapacityLimit(limit int) {
	if limit < 0 {
		limit = 0
	}
	p.limit = limit
	p.admitBlocked()
}

// CapacityLimit returns the current squeeze limit (0 = none).
func (p *Pipe) CapacityLimit() int { return p.limit }

// effCap is the capacity currently enforced on writers.
func (p *Pipe) effCap() int {
	c := p.capacity
	if p.limit > 0 && p.limit < c {
		c = p.limit
	}
	if c < 1 {
		c = 1
	}
	return c
}

func (p *Pipe) now() des.Time {
	if p.clock == nil {
		return 0
	}
	return p.clock()
}

// Len returns the number of buffered samples.
func (p *Pipe) Len() int { return p.items.Len() }

// Cap returns the pipe capacity.
func (p *Pipe) Cap() int { return p.capacity }

// Blocked returns the number of writers currently blocked on a full pipe.
func (p *Pipe) Blocked() int { return p.blocked.Len() }

// Puts returns the total samples accepted into the pipe.
func (p *Pipe) Puts() int { return p.puts }

// Dropped returns the total samples discarded: TryPut on a full pipe plus
// DropNewest discards plus DropOldest evictions.
func (p *Pipe) Dropped() int { return p.dropped }

// DroppedNewest returns samples discarded on arrival (TryPut, DropNewest).
func (p *Pipe) DroppedNewest() int { return p.droppedNew }

// DroppedOldest returns buffered samples evicted by DropOldest.
func (p *Pipe) DroppedOldest() int { return p.droppedOld }

// BlockedWaitTotal returns the cumulative simulated time writers have
// spent blocked on a full pipe, including writers still blocked now.
// Requires SetClock; without a clock it returns 0.
func (p *Pipe) BlockedWaitTotal() float64 {
	w := p.blockedWait
	if p.clock != nil {
		now := p.now()
		for i := 0; i < p.blocked.Len(); i++ {
			w += now - p.blocked.At(i).since
		}
	}
	return w
}

// ResetAccounting clears the pipe's counters without disturbing buffered
// samples or blocked writers (their wait restarts at the current clock);
// used for warmup (initial-transient) removal.
func (p *Pipe) ResetAccounting() {
	p.dropped, p.droppedNew, p.droppedOld = 0, 0, 0
	p.puts = 0
	p.blockedWait = 0
	now := p.now()
	for i := 0; i < p.blocked.Len(); i++ {
		p.blocked.At(i).since = now
	}
}

// Put writes a sample. If there is room it is accepted immediately and Put
// returns true. On a full pipe the overflow policy decides: Block queues
// the writer (Put returns false and onAccepted fires later, when space
// frees and the sample enters the pipe); DropNewest discards the sample;
// DropOldest evicts the oldest buffered sample to admit this one. Under
// both drop policies the writer proceeds (Put returns true). onAccepted
// may be nil.
func (p *Pipe) Put(s Sample, onAccepted func()) bool {
	if p.items.Len() < p.effCap() {
		p.accept(s)
		return true
	}
	switch p.policy {
	case DropNewest:
		p.dropped++
		p.droppedNew++
		if p.obs != nil {
			p.obs.PipeDropped(p.obsID, p.now(), s, false)
		}
		return true
	case DropOldest:
		evicted := p.items.Pop()
		p.dropped++
		p.droppedOld++
		if p.obs != nil {
			p.obs.PipeDropped(p.obsID, p.now(), evicted, true)
		}
		p.accept(s)
		return true
	}
	p.blocked.Push(blockedPut{s: s, onAccepted: onAccepted, since: p.now()})
	if p.obs != nil {
		p.obs.PipeBlocked(p.obsID, p.now(), s)
	}
	return false
}

// TryPut writes a sample if there is room, otherwise drops it and returns
// false. It models lossy instrumentation buffers for ablation experiments.
func (p *Pipe) TryPut(s Sample) bool {
	if p.items.Len() < p.effCap() {
		p.accept(s)
		return true
	}
	p.dropped++
	p.droppedNew++
	if p.obs != nil {
		p.obs.PipeDropped(p.obsID, p.now(), s, false)
	}
	return false
}

func (p *Pipe) accept(s Sample) {
	p.items.Push(s)
	p.puts++
	if p.obs != nil {
		p.obs.PipePut(p.obsID, p.now(), s, p.items.Len())
	}
	if p.onData != nil {
		p.onData()
	}
}

// Get removes and returns the oldest sample. When space frees and writers
// are blocked, blocked samples enter the pipe in FIFO order and their
// onAccepted callbacks fire.
func (p *Pipe) Get() (Sample, bool) {
	if p.items.Len() == 0 {
		return Sample{}, false
	}
	s := p.items.Pop()
	if p.obs != nil {
		p.obs.PipeGet(p.obsID, p.now(), s, p.items.Len())
	}
	p.admitBlocked()
	return s, true
}

// admitBlocked moves blocked writers into the pipe while space allows,
// oldest first, accounting their completed wait time.
func (p *Pipe) admitBlocked() {
	for p.blocked.Len() > 0 && p.items.Len() < p.effCap() {
		bp := p.blocked.Pop()
		if p.clock != nil {
			p.blockedWait += p.now() - bp.since
		}
		p.accept(bp.s)
		if bp.onAccepted != nil {
			bp.onAccepted()
		}
	}
}

// Drain removes and returns up to max samples (all buffered samples if max
// <= 0), unblocking writers as space frees. The daemon uses Drain to build
// a batch under the BF policy.
func (p *Pipe) Drain(max int) []Sample {
	if max <= 0 || max > p.items.Len()+p.blocked.Len() {
		max = p.items.Len() // blocked items enter as space frees below
	}
	var out []Sample
	for len(out) < max {
		s, ok := p.Get()
		if !ok {
			break
		}
		out = append(out, s)
	}
	return out
}
