package resources

import (
	"math"
	"testing"

	"rocc/internal/des"
)

// refCPU is the round-robin scheduler CPU implements, written plainly: a
// ready FIFO, at most cores requests each holding a core for a quantum
// slice, and a request with demand left requeued at the back when its
// slice expires. Every request goes through the queue.
type refCPU struct {
	sim     *des.Simulator
	cores   int
	quantum float64
	ready   []refReq
	running int
	busy    map[string]float64
	total   float64
}

type refReq struct {
	owner     string
	remaining float64
	onDone    func()
}

func (c *refCPU) Submit(owner string, length float64, onDone func()) {
	if length <= epsilon {
		if onDone != nil {
			onDone()
		}
		return
	}
	c.ready = append(c.ready, refReq{owner, length, onDone})
	c.fill()
}

func (c *refCPU) fill() {
	for c.running < c.cores && len(c.ready) > 0 {
		r := c.ready[0]
		c.ready = c.ready[1:]
		c.running++
		slice := math.Min(r.remaining, c.quantum)
		c.sim.Schedule(slice, func() { c.expire(r, slice) })
	}
}

func (c *refCPU) expire(r refReq, slice float64) {
	c.busy[r.owner] += slice
	c.total += slice
	r.remaining -= slice
	c.running--
	if r.remaining <= epsilon {
		if r.onDone != nil {
			r.onDone()
		}
	} else {
		c.ready = append(c.ready, r)
	}
	c.fill()
}

// cpuUnderTest is what the fuzz program drives: CPU or refCPU.
type cpuUnderTest interface {
	Submit(owner string, length float64, onDone func())
}

// cpuRun is one side of the lockstep: a simulator, the CPU on it, the
// completions in order, and the load after every event.
type cpuRun struct {
	sim   *des.Simulator
	cpu   cpuUnderTest
	load  func() int
	done  []cpuDone
	loads []int
}

type cpuDone struct {
	job, hop int
	t        float64
}

func (r *cpuRun) EventDispatched(des.Time, int) { r.loads = append(r.loads, r.load()) }

// cpuJob is one decoded submission: when, by whom, how much, and how many
// follow-ups its completion submits from inside the completion.
type cpuJob struct {
	at     float64
	owner  string
	demand float64
	hops   int
}

// submit submits job's hop-th request; its completion submits the next
// hop, each half the demand of the last.
func (r *cpuRun) submit(id int, j cpuJob, hop int, demand float64) {
	r.cpu.Submit(j.owner, demand, func() {
		r.done = append(r.done, cpuDone{id, hop, r.sim.Now()})
		if hop < j.hops {
			r.submit(id, j, hop+1, demand/2)
		}
	})
}

func (r *cpuRun) play(jobs []cpuJob) {
	for id, j := range jobs {
		r.sim.At(j.at, func() { r.submit(id, j, 0, j.demand) })
	}
	r.sim.RunAll()
}

// FuzzCPUMatchesReference steps CPU in lockstep with refCPU over 1–4
// cores, a random quantum and three owners, on demands of zero, at most
// epsilon, under a quantum and of several quanta, with follow-up requests
// submitted from inside completions. Both must complete the same requests
// at the same times in the same order, hold the same QueueLen()+Running()
// after every event, and end with the same Busy per owner and BusyTotal,
// bit for bit. TestQuickCPUWorkConservation checks totals only; this
// also pins CPU's direct starts on an idle core, which skip the ready
// queue, to the order the queue would give.
func FuzzCPUMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(10), []byte{0, 0, 200, 0, 1, 90, 5, 2, 3})
	f.Add(uint8(1), uint8(3), []byte{0, 3, 255, 0, 4, 7, 0, 8, 130, 2, 1, 66, 2, 5, 201})
	f.Add(uint8(3), uint8(0), []byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 255, 0, 1, 254})
	owners := [3]string{"app", "pd", "other"}
	f.Fuzz(func(t *testing.T, cores8, q8 uint8, prog []byte) {
		cores := int(cores8)%4 + 1
		quantum := 1 + float64(q8)*7.5
		var jobs []cpuJob
		for i := 0; i+2 < len(prog) && len(jobs) < 64; i += 3 {
			a, b, c := prog[i], prog[i+1], prog[i+2]
			var demand float64
			switch c % 4 {
			case 0:
				demand = 0
			case 1:
				demand = epsilon * float64(c) / 255
			case 2:
				demand = quantum * float64(c) / 256
			case 3:
				demand = quantum*float64(1+c%5) + float64(c)/16
			}
			jobs = append(jobs, cpuJob{
				at:     float64(a%32) * quantum / 4,
				owner:  owners[b%3],
				demand: demand,
				hops:   int(b/3) % 3,
			})
		}

		cpuSim := des.NewWithCalendar(des.NewBucketCalendar())
		cpu := NewCPU(cpuSim, cores, quantum)
		got := &cpuRun{sim: cpuSim, cpu: cpu, load: func() int { return cpu.QueueLen() + cpu.Running() }}
		cpuSim.Obs = got
		refSim := des.NewWithCalendar(des.NewBucketCalendar())
		ref := &refCPU{sim: refSim, cores: cores, quantum: quantum, busy: map[string]float64{}}
		want := &cpuRun{sim: refSim, cpu: ref, load: func() int { return len(ref.ready) + ref.running }}
		refSim.Obs = want
		got.play(jobs)
		want.play(jobs)

		if len(got.done) != len(want.done) {
			t.Fatalf("CPU completed %d requests, reference %d", len(got.done), len(want.done))
		}
		for i, d := range got.done {
			if w := want.done[i]; d.job != w.job || d.hop != w.hop || math.Float64bits(d.t) != math.Float64bits(w.t) {
				t.Fatalf("completion %d: CPU job %d hop %d at %v, reference job %d hop %d at %v",
					i, d.job, d.hop, d.t, w.job, w.hop, w.t)
			}
		}
		if len(got.loads) != len(want.loads) {
			t.Fatalf("CPU dispatched %d events, reference %d", len(got.loads), len(want.loads))
		}
		for i, l := range got.loads {
			if l != want.loads[i] {
				t.Fatalf("after event %d: CPU load %d, reference %d", i, l, want.loads[i])
			}
		}
		for _, o := range owners {
			if g, w := cpu.Busy(o), ref.busy[o]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("Busy(%q) = %v, reference %v", o, g, w)
			}
		}
		if g, w := cpu.BusyTotal(), ref.total; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("BusyTotal = %v, reference %v", g, w)
		}
	})
}
