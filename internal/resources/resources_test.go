package resources

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"rocc/internal/des"
)

func TestCPUSingleRequest(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, 1, 10000)
	done := -1.0
	cpu.Submit("app", 2500, func() { done = sim.Now() })
	sim.RunAll()
	if done != 2500 {
		t.Fatalf("completion at %v, want 2500", done)
	}
	if got := cpu.Busy("app"); got != 2500 {
		t.Fatalf("busy %v", got)
	}
	if cpu.BusyTotal() != 2500 {
		t.Fatal("busy total")
	}
}

func TestCPURoundRobinFairness(t *testing.T) {
	// Two 20000-us requests on one core with a 10000-us quantum interleave:
	// A runs [0,10k), B [10k,20k), A [20k,30k), B [30k,40k).
	sim := des.New()
	cpu := NewCPU(sim, 1, 10000)
	var doneA, doneB float64
	cpu.Submit("A", 20000, func() { doneA = sim.Now() })
	cpu.Submit("B", 20000, func() { doneB = sim.Now() })
	sim.RunAll()
	if doneA != 30000 || doneB != 40000 {
		t.Fatalf("doneA=%v doneB=%v, want 30000/40000", doneA, doneB)
	}
}

func TestCPUShortRequestNotStarved(t *testing.T) {
	// A short IS request behind a long application burst gets the CPU
	// after one quantum, not after the whole burst — the essence of the
	// round-robin sharing the ROCC model depends on.
	sim := des.New()
	cpu := NewCPU(sim, 1, 10000)
	var donePd float64
	cpu.Submit("app", 100000, nil)
	cpu.Submit("pd", 300, func() { donePd = sim.Now() })
	sim.RunAll()
	if donePd != 10300 {
		t.Fatalf("pd done at %v, want 10300", donePd)
	}
}

func TestCPUMultiCore(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, 2, 10000)
	var times []float64
	for i := 0; i < 2; i++ {
		cpu.Submit("app", 5000, func() { times = append(times, sim.Now()) })
	}
	sim.RunAll()
	if len(times) != 2 || times[0] != 5000 || times[1] != 5000 {
		t.Fatalf("parallel completions %v", times)
	}
	if cpu.Busy("app") != 10000 {
		t.Fatalf("app busy %v, want 10000 (two cores for 5000)", cpu.Busy("app"))
	}
}

func TestCPUZeroLength(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, 1, 10000)
	called := false
	cpu.Submit("x", 0, func() { called = true })
	if !called {
		t.Fatal("zero-length request should complete synchronously")
	}
	cpu.Submit("x", 5, nil) // nil onDone must not panic
	sim.RunAll()
}

func TestCPUPanics(t *testing.T) {
	sim := des.New()
	mustPanic(t, func() { NewCPU(sim, 0, 1) })
	mustPanic(t, func() { NewCPU(sim, 1, 0) })
	cpu := NewCPU(sim, 1, 10)
	mustPanic(t, func() { cpu.Submit("x", -1, nil) })
	mustPanic(t, func() { cpu.Submit("x", math.NaN(), nil) })
}

// panics reports whether f panics.
func panics(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// The in-place initialisers panic on exactly the arguments the
// constructors reject, and otherwise turn a used record into the one the
// constructor returns.
func TestInitMatchesConstructors(t *testing.T) {
	sim := des.New()
	for _, cores := range []int{-1, 0, 1, 2} {
		for _, quantum := range []float64{-1, 0, 1e-9, 10} {
			var want *CPU
			newPanics := panics(func() { want = NewCPU(sim, cores, quantum) })
			used := NewCPU(sim, 1, 5)
			used.Submit("app", 12, nil)
			sim.RunAll()
			used.OnOccupancy = func(string, float64, float64) {}
			if initPanics := panics(func() { used.Init(sim, cores, quantum) }); initPanics != newPanics {
				t.Fatalf("cores %d quantum %v: Init panics %v, NewCPU %v", cores, quantum, initPanics, newPanics)
			}
			if !newPanics && !reflect.DeepEqual(used, want) {
				t.Fatalf("cores %d quantum %v: Init gave %+v, NewCPU %+v", cores, quantum, used, want)
			}
		}
	}
	for _, capacity := range []int{-1, 0, 1, 256} {
		var want *Pipe
		newPanics := panics(func() { want = NewPipe(capacity) })
		used := NewPipe(1)
		used.SetClock(sim.Now)
		used.Put(Sample{Seq: 1}, nil)
		used.Put(Sample{Seq: 2}, nil) // blocks
		used.SetCapacityLimit(1)
		if initPanics := panics(func() { used.Init(capacity) }); initPanics != newPanics {
			t.Fatalf("capacity %d: Init panics %v, NewPipe %v", capacity, initPanics, newPanics)
		}
		if !newPanics && !reflect.DeepEqual(used, want) {
			t.Fatalf("capacity %d: Init gave %+v, NewPipe %+v", capacity, used, want)
		}
	}
	for _, contended := range []bool{false, true} {
		used := NewNetwork(sim, !contended)
		used.Submit("pd", 3, nil)
		sim.RunAll()
		used.Init(sim, contended)
		if want := NewNetwork(sim, contended); !reflect.DeepEqual(used, want) {
			t.Fatalf("contended %v: Init gave %+v, NewNetwork %+v", contended, used, want)
		}
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestCPUOwnersAndQueue(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, 1, 1000)
	cpu.Submit("a", 500, nil)
	cpu.Submit("b", 500, nil)
	if cpu.Running() != 1 || cpu.QueueLen() != 1 {
		t.Fatalf("running=%d queued=%d", cpu.Running(), cpu.QueueLen())
	}
	sim.RunAll()
	if cpu.Busy("a") != 500 || cpu.Busy("b") != 500 || cpu.BusyTotal() != 1000 {
		t.Fatalf("busy a=%v b=%v total=%v", cpu.Busy("a"), cpu.Busy("b"), cpu.BusyTotal())
	}
}

// The tally's identity fast path must not split an owner: a label with
// the same contents but different storage, as a decoder or strings.Clone
// makes, lands in the slot of the constant it equals.
func TestTallyOwnerIdentityAndContents(t *testing.T) {
	var ta tally
	ta.add("app", 1)
	ta.add(strings.Clone("app"), 2)
	ta.add("pd", 4)
	if got := ta.get(strings.Clone("app")); got != 3 {
		t.Fatalf("app total %v, want 3", got)
	}
	if got := ta.get("pd"); got != 4 {
		t.Fatalf("pd total %v, want 4", got)
	}
	if got := ta.get("pvmd"); got != 0 {
		t.Fatalf("unknown owner total %v, want 0", got)
	}
	if len(ta.owners()) != 2 {
		t.Fatalf("owners %v", ta.owners())
	}
}

func TestNetworkContendedFIFO(t *testing.T) {
	sim := des.New()
	net := NewNetwork(sim, true)
	var order []string
	net.Submit("a", 100, func() { order = append(order, "a") })
	net.Submit("b", 50, func() { order = append(order, "b") })
	net.Submit("c", 10, func() { order = append(order, "c") })
	if net.QueueLen() != 2 {
		t.Fatalf("queue length %d, want 2", net.QueueLen())
	}
	sim.RunAll()
	if sim.Now() != 160 {
		t.Fatalf("finish time %v, want 160 (serialized)", sim.Now())
	}
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order %v", order)
	}
	if net.Busy("a") != 100 || net.BusyTotal() != 160 {
		t.Fatal("accounting wrong")
	}
}

func TestNetworkContentionFree(t *testing.T) {
	sim := des.New()
	net := NewNetwork(sim, false)
	var finish []float64
	net.Submit("a", 100, func() { finish = append(finish, sim.Now()) })
	net.Submit("b", 100, func() { finish = append(finish, sim.Now()) })
	sim.RunAll()
	if sim.Now() != 100 {
		t.Fatalf("finish time %v, want 100 (parallel)", sim.Now())
	}
	if len(finish) != 2 {
		t.Fatal("missing completions")
	}
	if net.Contended() {
		t.Fatal("mode flag wrong")
	}
	if net.Busy("a") != 100 || net.BusyTotal() != 200 {
		t.Fatalf("busy a=%v total=%v", net.Busy("a"), net.BusyTotal())
	}
}

func TestNetworkPanics(t *testing.T) {
	sim := des.New()
	net := NewNetwork(sim, true)
	mustPanic(t, func() { net.Submit("x", -5, nil) })
}

func TestPipeBasics(t *testing.T) {
	p := NewPipe(2)
	if !p.Put(Sample{GenTime: 1}, nil) || !p.Put(Sample{GenTime: 2}, nil) {
		t.Fatal("puts under capacity should succeed")
	}
	if p.Len() != 2 || p.Cap() != 2 {
		t.Fatal("length/cap accounting")
	}
	s, ok := p.Get()
	if !ok || s.GenTime != 1 {
		t.Fatalf("FIFO violated: %+v", s)
	}
}

func TestPipeBlocksWriterAndUnblocksOnGet(t *testing.T) {
	p := NewPipe(1)
	p.Put(Sample{GenTime: 1}, nil)
	unblocked := false
	if p.Put(Sample{GenTime: 2}, func() { unblocked = true }) {
		t.Fatal("put on full pipe should block")
	}
	if p.Blocked() != 1 {
		t.Fatal("blocked count")
	}
	s, _ := p.Get()
	if s.GenTime != 1 {
		t.Fatal("wrong sample")
	}
	if !unblocked {
		t.Fatal("blocked writer not released by Get")
	}
	if p.Len() != 1 {
		t.Fatal("blocked sample should have entered the pipe")
	}
	s, _ = p.Get()
	if s.GenTime != 2 {
		t.Fatal("blocked sample lost")
	}
}

func TestPipeOnData(t *testing.T) {
	// Every accepted sample wakes the reader: a daemon waiting on a batch
	// threshold needs to recheck on each arrival, not only on the
	// empty-to-non-empty transition.
	p := NewPipe(4)
	wakeups := 0
	p.SetOnData(func() { wakeups++ })
	p.Put(Sample{}, nil)
	p.Put(Sample{}, nil)
	if wakeups != 2 {
		t.Fatalf("wakeups %d, want 2", wakeups)
	}
	p.Get()
	p.Get()
	p.Put(Sample{}, nil)
	if wakeups != 3 {
		t.Fatalf("wakeups %d, want 3", wakeups)
	}
	// A blocked put wakes the reader when it finally enters via Get.
	p2 := NewPipe(1)
	w2 := 0
	p2.SetOnData(func() { w2++ })
	p2.Put(Sample{}, nil)
	p2.Put(Sample{}, nil) // blocks
	if w2 != 1 {
		t.Fatalf("blocked put should not wake yet: %d", w2)
	}
	p2.Get()
	if w2 != 2 {
		t.Fatalf("unblocked sample should wake reader: %d", w2)
	}
}

// Draining a full pipe by repeated Get, as a daemon collects a batch,
// takes the buffered samples and then the blocked writers' samples in
// write order, admitting each writer as space frees.
func TestPipeDrain(t *testing.T) {
	p := NewPipe(3)
	admitted := 0
	for i := 0; i < 5; i++ {
		p.Put(Sample{GenTime: float64(i)}, func() { admitted++ })
	}
	var got []float64
	for {
		s, ok := p.Get()
		if !ok {
			break
		}
		got = append(got, s.GenTime)
	}
	if !slices.Equal(got, []float64{0, 1, 2, 3, 4}) {
		t.Fatalf("drained %v, want 0..4 in write order", got)
	}
	if admitted != 2 || p.Len() != 0 || p.Blocked() != 0 {
		t.Fatalf("admitted %d, len %d, blocked %d; want 2, 0, 0", admitted, p.Len(), p.Blocked())
	}
}

func TestPipeGetEmpty(t *testing.T) {
	p := NewPipe(1)
	if _, ok := p.Get(); ok {
		t.Fatal("Get on empty pipe")
	}
	mustPanic(t, func() { NewPipe(0) })
}

// Property: pipe preserves FIFO order and never exceeds capacity, under any
// interleaving of puts and gets.
func TestQuickPipeFIFO(t *testing.T) {
	f := func(ops []bool, capSeed uint8) bool {
		capacity := int(capSeed)%8 + 1
		p := NewPipe(capacity)
		nextPut, nextGet := 0, 0
		for _, isPut := range ops {
			if isPut {
				p.Put(Sample{GenTime: float64(nextPut)}, nil)
				nextPut++
			} else if s, ok := p.Get(); ok {
				if int(s.GenTime) != nextGet {
					return false
				}
				nextGet++
			}
			if p.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CPU conserves work — total busy time equals total demand once
// all requests complete, regardless of core count and quantum.
func TestQuickCPUWorkConservation(t *testing.T) {
	f := func(lengths []uint16, cores8, quantum16 uint8) bool {
		cores := int(cores8)%4 + 1
		quantum := float64(int(quantum16)*20) + 100
		sim := des.New()
		cpu := NewCPU(sim, cores, quantum)
		total := 0.0
		for _, l := range lengths {
			d := float64(l % 10000)
			total += d
			cpu.Submit("w", d, nil)
		}
		sim.RunAll()
		return math.Abs(cpu.Busy("w")-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: contended network serializes — completion time equals the sum
// of lengths when all requests are submitted at time zero.
func TestQuickNetworkSerializes(t *testing.T) {
	f := func(lengths []uint16) bool {
		sim := des.New()
		net := NewNetwork(sim, true)
		total := 0.0
		for _, l := range lengths {
			d := float64(l)
			total += d
			net.Submit("w", d, nil)
		}
		sim.RunAll()
		return math.Abs(sim.Now()-total) < 1e-6*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPipeBlockedWaitAccounting(t *testing.T) {
	now := des.Time(0)
	p := NewPipe(1)
	p.SetClock(func() des.Time { return now })
	p.Put(Sample{}, nil)
	now = 10
	p.Put(Sample{}, nil) // blocks at t=10
	now = 25
	if got := p.BlockedWaitTotal(); got != 15 {
		t.Fatalf("in-progress wait %v, want 15", got)
	}
	p.Get() // admits the blocked writer at t=25
	if got := p.BlockedWaitTotal(); got != 15 {
		t.Fatalf("completed wait %v, want 15", got)
	}
	now = 100
	if got := p.BlockedWaitTotal(); got != 15 {
		t.Fatal("completed wait must not keep growing")
	}
	p.ResetAccounting()
	if p.BlockedWaitTotal() != 0 {
		t.Fatal("ResetAccounting must clear the blocked wait")
	}
}

func TestPipeCapacitySqueeze(t *testing.T) {
	p := NewPipe(4)
	for i := 0; i < 3; i++ {
		p.Put(Sample{GenTime: float64(i)}, nil)
	}
	p.SetCapacityLimit(2)
	// Above the squeezed capacity: writers block even though Cap() has room.
	if p.Put(Sample{GenTime: 9}, nil) {
		t.Fatal("put above squeeze limit must block")
	}
	// Draining below the limit does not admit the blocked writer until
	// there is space under the squeezed capacity.
	p.Get() // len 2 == limit, still full
	if p.Blocked() != 1 {
		t.Fatal("writer admitted above the squeeze limit")
	}
	p.Get() // len 1 < limit: admit
	if p.Blocked() != 0 || p.Len() != 2 {
		t.Fatalf("blocked writer not admitted: blocked %d len %d", p.Blocked(), p.Len())
	}
	// Removing the limit restores the full capacity for writers.
	p.SetCapacityLimit(0)
	if !p.Put(Sample{}, nil) || !p.Put(Sample{}, nil) {
		t.Fatal("puts under restored capacity should succeed")
	}
	if p.Len() != 4 {
		t.Fatalf("len %d, want 4", p.Len())
	}
}

func TestPipeSqueezeReleaseAdmitsBlocked(t *testing.T) {
	p := NewPipe(4)
	p.SetCapacityLimit(1)
	p.Put(Sample{GenTime: 1}, nil)
	released := 0
	p.Put(Sample{GenTime: 2}, func() { released++ })
	p.Put(Sample{GenTime: 3}, func() { released++ })
	if p.Blocked() != 2 {
		t.Fatal("writers should block under the squeeze")
	}
	p.SetCapacityLimit(0) // pressure ends: both writers fit
	if released != 2 || p.Blocked() != 0 || p.Len() != 3 {
		t.Fatalf("squeeze release: released %d blocked %d len %d", released, p.Blocked(), p.Len())
	}
}

// pipeEvents records PipeObserver callbacks as compact strings.
type pipeEvents struct{ got []string }

func (p *pipeEvents) PipePut(pipe int, t float64, s Sample, depth int) {
	p.got = append(p.got, fmt.Sprintf("put p%d seq%d depth%d", pipe, s.Seq, depth))
}
func (p *pipeEvents) PipeBlocked(pipe int, t float64, s Sample) {
	p.got = append(p.got, fmt.Sprintf("blocked p%d seq%d", pipe, s.Seq))
}
func (p *pipeEvents) PipeGet(pipe int, t float64, s Sample, depth int) {
	p.got = append(p.got, fmt.Sprintf("get p%d seq%d depth%d", pipe, s.Seq, depth))
}

// The pipe reports every lifecycle transition to its observer: accepted
// puts with resulting depth, blocked writers, and gets with remaining
// depth — including the deferred put when a blocked writer is admitted.
func TestPipeObserverLifecycle(t *testing.T) {
	p := NewPipe(1)
	obs := &pipeEvents{}
	p.SetObserver(7, obs)

	p.Put(Sample{Seq: 0}, nil)
	p.Put(Sample{Seq: 1}, func() {}) // full: writer blocks
	p.Get()                          // frees space; blocked sample enters
	p.Get()

	want := []string{
		"put p7 seq0 depth1",
		"blocked p7 seq1",
		"get p7 seq0 depth0",
		"put p7 seq1 depth1", // the admitted blocked writer
		"get p7 seq1 depth0",
	}
	if len(obs.got) != len(want) {
		t.Fatalf("events %v, want %v", obs.got, want)
	}
	for i := range want {
		if obs.got[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (all: %v)", i, obs.got[i], want[i], obs.got)
		}
	}
}
