package resources

import (
	"math"
	"testing"

	"rocc/internal/des"
)

// scriptSource is a DemandSource that hands out fixed demands in order and
// counts how many it has drawn.
type scriptSource struct {
	vals  []float64
	drawn int
}

func (s *scriptSource) Demand() float64 {
	v := s.vals[s.drawn]
	s.drawn++
	return v
}

// cpuSubmit is one request of a CPU script: at time at, owner submits a
// request of the given length, eagerly or (deferred) through the run's
// DemandSource.
type cpuSubmit struct {
	at       float64
	owner    string
	length   float64
	deferred bool
}

var scriptOwners = [...]string{"app", "pd", "main"}

// decodeCPUScript reads ops two bytes at a time (an opcode, then its
// argument) into a submit schedule: eager submits from any owner, single
// deferred submits and bursts of them from "main", and clock advances.
func decodeCPUScript(ops []byte, quantum float64) []cpuSubmit {
	var script []cpuSubmit
	now := 0.0
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		switch op % 4 {
		case 0:
			script = append(script, cpuSubmit{now, scriptOwners[int(op/4)%len(scriptOwners)], scriptDemand(arg, quantum), false})
		case 1:
			script = append(script, cpuSubmit{now, "main", scriptDemand(arg, quantum), true})
		case 2:
			for k := 0; k < int(op/4)%6+2; k++ {
				script = append(script, cpuSubmit{now, "main", scriptDemand(arg+byte(37*k), quantum), true})
			}
		case 3:
			now += float64(arg) * 3.1
		}
	}
	return script
}

// scriptDemand maps a byte to a demand: zero, values at and below epsilon,
// values longer than the quantum, and fractional values in between.
func scriptDemand(b byte, quantum float64) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return epsilon / 2
	case 2:
		return epsilon
	case 3:
		return quantum * (1 + float64(b)/64)
	}
	return float64(b) * 2.3
}

type occupancy struct {
	owner         string
	start, length uint64 // float bits
}

// cpuScriptRun is one CPU driven by a script, recording its occupancy
// slices and the order in which eager submits complete.
type cpuScriptRun struct {
	sim       *des.Simulator
	cpu       *CPU
	src       *scriptSource // nil on the eager run
	deferred  int           // deferred submits made so far
	occ       []occupancy
	completed []int
}

func newCPUScriptRun(cores int, quantum float64, script []cpuSubmit, src *scriptSource) *cpuScriptRun {
	r := &cpuScriptRun{sim: des.New(), src: src}
	r.cpu = NewCPU(r.sim, cores, quantum)
	r.cpu.OnOccupancy = func(owner string, start, length float64) {
		r.occ = append(r.occ, occupancy{owner, math.Float64bits(start), math.Float64bits(length)})
	}
	for i, s := range script {
		r.sim.At(s.at, func() {
			switch {
			case s.deferred && src != nil:
				r.deferred++
				r.cpu.SubmitDeferred(s.owner, src)
			case s.deferred:
				r.cpu.Submit(s.owner, s.length, nil)
			default:
				r.cpu.Submit(s.owner, s.length, func() { r.completed = append(r.completed, i) })
			}
		})
	}
	return r
}

// FuzzCPUDeferredMatchesEager holds SubmitDeferred to Submit: a script run
// once with its deferred requests drawn from a DemandSource and once with
// the same demands, in submit order, handed to Submit must step through
// the same events with the same occupancy slices, completion order and
// busy totals, bit for bit. QueueLen()+Running() must agree after every
// event except for one documented difference: a deferred demand of at most
// epsilon stays counted in QueueLen until a core takes it, where Submit
// never queues it.
func FuzzCPUDeferredMatchesEager(f *testing.F) {
	f.Add([]byte{2, 5, 0, 3, 1, 6, 3, 40, 4, 11, 6, 9}, uint8(0), uint8(7))
	f.Add([]byte{0, 200, 22, 1, 1, 2, 5, 4, 3, 10, 10, 30, 9, 7}, uint8(1), uint8(3))
	f.Add([]byte{1, 9, 0, 11, 1, 17, 8, 19, 3, 2, 22, 33, 1, 1, 4, 3}, uint8(3), uint8(0))
	f.Add([]byte{2, 0, 2, 1, 2, 2, 3, 90, 2, 3, 0, 200}, uint8(2), uint8(40))
	f.Fuzz(func(t *testing.T, ops []byte, cores8, quantum8 uint8) {
		cores := int(cores8)%4 + 1
		quantum := float64(quantum8%64+1) * 12.5
		script := decodeCPUScript(ops, quantum)
		var vals []float64
		for _, s := range script {
			if s.deferred {
				vals = append(vals, s.length)
			}
		}
		def := newCPUScriptRun(cores, quantum, script, &scriptSource{vals: vals})
		eag := newCPUScriptRun(cores, quantum, script, nil)
		for step := 1; ; step++ {
			more := def.sim.Step()
			if more != eag.sim.Step() {
				t.Fatalf("event %d: one run ended before the other", step)
			}
			if !more {
				break
			}
			if def.sim.Now() != eag.sim.Now() {
				t.Fatalf("event %d at %v deferred, %v eager", step, def.sim.Now(), eag.sim.Now())
			}
			tiny := 0 // submitted, undrawn deferred demands ≤ epsilon
			for _, v := range vals[def.src.drawn:def.deferred] {
				if v <= epsilon {
					tiny++
				}
			}
			got := def.cpu.QueueLen() + def.cpu.Running() - tiny
			if want := eag.cpu.QueueLen() + eag.cpu.Running(); got != want {
				t.Fatalf("event %d: %d requests in the CPU (less %d undrawn ≤ epsilon), eager %d",
					step, got+tiny, tiny, want)
			}
		}
		if def.src.drawn != len(vals) {
			t.Fatalf("drew %d of %d deferred demands", def.src.drawn, len(vals))
		}
		if len(def.occ) != len(eag.occ) {
			t.Fatalf("%d occupancy slices, eager %d", len(def.occ), len(eag.occ))
		}
		for i := range def.occ {
			if def.occ[i] != eag.occ[i] {
				t.Fatalf("slice %d: %+v, eager %+v", i, def.occ[i], eag.occ[i])
			}
		}
		if len(def.completed) != len(eag.completed) {
			t.Fatalf("%d completions, eager %d", len(def.completed), len(eag.completed))
		}
		for i := range def.completed {
			if def.completed[i] != eag.completed[i] {
				t.Fatalf("completion %d: submit %d, eager %d", i, def.completed[i], eag.completed[i])
			}
		}
		for _, o := range scriptOwners {
			if math.Float64bits(def.cpu.Busy(o)) != math.Float64bits(eag.cpu.Busy(o)) {
				t.Fatalf("Busy(%s) %v, eager %v", o, def.cpu.Busy(o), eag.cpu.Busy(o))
			}
		}
		if math.Float64bits(def.cpu.BusyTotal()) != math.Float64bits(eag.cpu.BusyTotal()) {
			t.Fatalf("BusyTotal %v, eager %v", def.cpu.BusyTotal(), eag.cpu.BusyTotal())
		}
	})
}

// A CPU serves one deferred source; a second one, or the same source under
// another owner, would silently share the first one's queued count.
func TestCPUSubmitDeferredRejectsSecondSource(t *testing.T) {
	for name, second := range map[string]func(*CPU, *scriptSource){
		"source": func(c *CPU, _ *scriptSource) { c.SubmitDeferred("main", &scriptSource{vals: []float64{1}}) },
		"owner":  func(c *CPU, src *scriptSource) { c.SubmitDeferred("pd", src) },
	} {
		t.Run(name, func(t *testing.T) {
			cpu := NewCPU(des.New(), 1, 100)
			src := &scriptSource{vals: []float64{1, 1}}
			cpu.SubmitDeferred("main", src)
			cpu.SubmitDeferred("main", src)
			defer func() {
				if recover() == nil {
					t.Fatal("a second deferred source was accepted")
				}
			}()
			second(cpu, src)
		})
	}
}

// countingSource draws 1, 2, …, 97, 1, 2, … µs and counts its draws.
type countingSource struct{ drawn int }

func (s *countingSource) Demand() float64 {
	s.drawn++
	return float64((s.drawn-1)%97 + 1)
}

// A core held by a long request takes a backlog of deferred requests in
// constant memory: one ready entry, no allocation, no ring growth. The
// backlog then drains in draw order, one slice per request, ahead of the
// long request's remainder.
func TestCPUDeferredBacklogHoldsConstantMemory(t *testing.T) {
	const n = 100000
	sim := des.New()
	cpu := NewCPU(sim, 1, 100)
	var mains []float64
	cpu.OnOccupancy = func(owner string, _, length float64) {
		if owner == "main" {
			mains = append(mains, length)
		}
	}
	cpu.Submit("app", 1000, nil)
	src := &countingSource{}
	submit := func() {
		for i := 0; i < n; i++ {
			cpu.SubmitDeferred("main", src)
		}
	}
	if allocs := testing.AllocsPerRun(1, submit); allocs != 0 {
		t.Fatalf("%d deferred submits allocated %.0f objects", n, allocs)
	}
	queued := 2 * n // AllocsPerRun runs submit once more to warm up
	if cpu.QueueLen() != queued || cpu.Running() != 1 || src.drawn != 0 {
		t.Fatalf("queue %d, running %d, drawn %d; want %d, 1, 0", cpu.QueueLen(), cpu.Running(), src.drawn, queued)
	}
	if c := cpu.ready.Cap(); c > 4 {
		t.Fatalf("ready ring grew to %d slots", c)
	}
	sim.RunAll()
	if src.drawn != queued || len(mains) != queued {
		t.Fatalf("drew %d demands and ran %d main slices, want %d", src.drawn, len(mains), queued)
	}
	for i, l := range mains {
		if want := float64(i%97 + 1); l != want {
			t.Fatalf("main slice %d ran %v µs, want draw %d's %v", i, l, i, want)
		}
	}
	if cpu.Busy("app") != 1000 || cpu.QueueLen() != 0 || cpu.Running() != 0 {
		t.Fatalf("app busy %v, queue %d, running %d", cpu.Busy("app"), cpu.QueueLen(), cpu.Running())
	}
}
