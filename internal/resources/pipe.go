package resources

import "rocc/internal/des"

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
// depth is the buffered-sample count after the operation.
type PipeObserver interface {
	PipePut(pipe int, t float64, s Sample, depth int)
	PipeBlocked(pipe int, t float64, s Sample)
	PipeGet(pipe int, t float64, s Sample, depth int)
}

// Pipe is the bounded kernel buffer (a Unix pipe in the real system)
// between an instrumented application process and its local Paradyn daemon.
// A Put into a full pipe blocks the writing application process, as
// write(2) does — the effect §4.3.3 of the paper identifies at small
// sampling periods, where a full pipe stalls the application until the
// daemon drains samples.
type Pipe struct {
	capacity int
	limit    int // fault-injected capacity squeeze; 0 = no limit
	items    des.FIFO[Sample]
	blocked  des.FIFO[blockedPut]

	// onData, if set, fires whenever a sample enters the pipe; the daemon
	// uses it to wake up (it may be waiting on a batch threshold, so every
	// arrival matters, not just the empty-to-non-empty transition).
	onData func()

	// clock, if set, timestamps blocked writers for wait-time accounting.
	clock func() des.Time

	// obs, if set, receives put/block/get notifications; obsID
	// identifies this pipe in them. Nil-guarded: costs one branch per
	// operation when tracing is off.
	obs   PipeObserver
	obsID int

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
	p := &Pipe{}
	p.Init(capacity)
	return p
}

// Init overwrites p with the pipe NewPipe(capacity) returns, so a caller
// can keep pipes in storage it owns. It panics where NewPipe does.
func (p *Pipe) Init(capacity int) {
	if capacity <= 0 {
		panic("resources: pipe capacity must be positive")
	}
	*p = Pipe{capacity: capacity}
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

// SetObserver attaches a lifecycle observer; id identifies this pipe in
// the callbacks. A nil observer detaches.
func (p *Pipe) SetObserver(id int, o PipeObserver) { p.obsID, p.obs = id, o }

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

// ResetAccounting clears the pipe's blocked-wait total without disturbing
// buffered samples or blocked writers (their wait restarts at the current
// clock); used for warmup (initial-transient) removal.
func (p *Pipe) ResetAccounting() {
	p.blockedWait = 0
	now := p.now()
	for i := 0; i < p.blocked.Len(); i++ {
		p.blocked.At(i).since = now
	}
}

// Put writes a sample. If there is room it is accepted immediately and Put
// returns true. On a full pipe the writer blocks: Put returns false and
// onAccepted fires later, when space frees and the sample enters the pipe.
// onAccepted may be nil.
func (p *Pipe) Put(s Sample, onAccepted func()) bool {
	if p.items.Len() < p.effCap() {
		p.accept(s)
		return true
	}
	p.blocked.Push(blockedPut{s: s, onAccepted: onAccepted, since: p.now()})
	if p.obs != nil {
		p.obs.PipeBlocked(p.obsID, p.now(), s)
	}
	return false
}

func (p *Pipe) accept(s Sample) {
	p.items.Push(s)
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
