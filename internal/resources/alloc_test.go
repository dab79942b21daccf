package resources

import (
	"fmt"
	"strings"
	"testing"

	"rocc/internal/des"
)

// Allocation pins for the sample path: once a resource's queues have
// reached their peak length, its steady state allocates nothing.

// A single-core CPU whose ready queue repeatedly fills to ~1k requests and
// drains: queued requests are held by value and only the one running
// request occupies a core slot.
func TestCPUQueuedSteadyStateDoesNotAllocate(t *testing.T) {
	sim := des.New()
	cpu := NewCPU(sim, 1, 100)
	done := 0
	onDone := func() { done++ }
	cycle := func() {
		for i := 0; i < 1000; i++ {
			cpu.Submit("app", 150, onDone) // two slices each: requeues too
		}
		if cpu.QueueLen() != 999 {
			t.Fatalf("queued %d requests, want 999", cpu.QueueLen())
		}
		sim.RunAll()
	}
	cycle() // warm up: ring storage, core slot, event free list
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("queued CPU cycle allocated %.2f objects per 1k requests", allocs)
	}
	if done != 22*1000 {
		t.Fatalf("%d requests completed, want %d", done, 22*1000)
	}
}

// A pipe alternating Put and Get around empty, and a blocked writer
// admitted by a Get, reuse the pipe's ring storage.
func TestPipeSteadyStateDoesNotAllocate(t *testing.T) {
	p := NewPipe(1)
	admitted := 0
	onAccepted := func() { admitted++ }
	cycle := func() {
		p.Put(Sample{Seq: 1}, nil)
		p.Get()
		p.Put(Sample{Seq: 2}, nil)
		if p.Put(Sample{Seq: 3}, onAccepted) { // full: the writer blocks
			t.Fatal("put into a full pipe was accepted")
		}
		p.Get() // admits the blocked writer
		p.Get()
	}
	cycle()
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("pipe put/get cycle allocated %.2f objects", allocs)
	}
	if admitted != 102 || p.Len() != 0 || p.Blocked() != 0 {
		t.Fatalf("admitted %d, len %d, blocked %d", admitted, p.Len(), p.Blocked())
	}
}

// A contended network whose channel queue fills and drains recycles its
// requests and queue storage.
func TestContendedNetworkSteadyStateDoesNotAllocate(t *testing.T) {
	sim := des.New()
	n := NewNetwork(sim, true)
	cycle := func() {
		for i := 0; i < 100; i++ {
			n.Submit("pd", 10, nil)
		}
		sim.RunAll()
	}
	cycle()
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("contended network cycle allocated %.2f objects per 100 transfers", allocs)
	}
}

// A fresh tally that meets all five owner classes keeps them in its own
// arrays: accounting allocates nothing.
func TestTallyReservesEveryOwnerClass(t *testing.T) {
	owners := []string{"app", "pd", "pvmd", "other", "paradyn"}
	allocs := testing.AllocsPerRun(100, func() {
		var ta tally
		for i, o := range owners {
			ta.add(o, float64(i))
		}
		if len(ta.owners()) != len(owners) {
			t.Fatalf("%d owners, want %d", len(ta.owners()), len(owners))
		}
	})
	if allocs != 0 {
		t.Fatalf("five owners cost %.0f allocations, want 0", allocs)
	}
}

// One owner past the tally's room panics, naming that owner; the owners
// already met keep their totals up to the panic.
func TestTallyPanicsOnOneOwnerTooMany(t *testing.T) {
	var ta tally
	for i := 0; i < ownerClasses; i++ {
		ta.add(fmt.Sprintf("owner%d", i), 1)
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `"intruder"`) {
			t.Fatalf("panic %v does not name the owner", r)
		}
		if len(ta.owners()) != ownerClasses || ta.get("owner0") != 1 {
			t.Fatalf("owners %v after the panic", ta.owners())
		}
	}()
	ta.add("intruder", 1)
	t.Fatal("a sixth owner was accepted")
}
