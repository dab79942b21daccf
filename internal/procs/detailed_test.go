package procs

import (
	"testing"

	"rocc/internal/forward"
	"rocc/internal/resources"
	"rocc/internal/rng"
)

func TestAppEventTraceEmitsPerIteration(t *testing.T) {
	r := newRig(1024)
	app := newApp(r, 0)
	app.EventTrace = true
	app.Start()
	r.sim.Run(100000)
	if app.Generated != app.Iterations {
		t.Fatalf("generated %d, iterations %d", app.Generated, app.Iterations)
	}
	if r.pipe.Len() != app.Generated {
		t.Fatal("samples missing from pipe")
	}
}

func TestAppEventTraceBlocksOnFullPipe(t *testing.T) {
	r := newRig(2)
	app := newApp(r, 0)
	app.EventTrace = true
	app.Start()
	r.sim.Run(500000)
	if app.BlockedPuts == 0 {
		t.Fatal("tiny pipe with no reader should block the tracer")
	}
	iters := app.Iterations
	// Drain: the app resumes.
	for {
		if _, ok := r.pipe.Get(); !ok {
			break
		}
	}
	r.sim.Run(600000)
	if app.Iterations <= iters {
		t.Fatal("app did not resume after drain")
	}
}

func TestAppIOBlocking(t *testing.T) {
	r := newRig(64)
	app := newApp(r, 0)
	app.IOProb = 1.0 // block after every iteration
	app.IOBlock = rng.Constant{Value: 5000}
	app.Start()
	r.sim.Run(100000)
	// Each cycle: 2000 CPU + 200 net + 5000 blocked = 7200 us.
	want := int(100000 / 7200)
	if app.IOBlocks < want-1 || app.IOBlocks > want+1 {
		t.Fatalf("IO blocks %d, want ~%d", app.IOBlocks, want)
	}
	if app.IOBlocks != app.Iterations {
		t.Fatalf("every iteration should block: %d vs %d", app.IOBlocks, app.Iterations)
	}
}

func TestAppSpawnHook(t *testing.T) {
	r := newRig(64)
	app := newApp(r, 0)
	app.SpawnPeriod = 10000 // every ~10 ms of work
	var spawns int
	app.OnSpawn = func(parent *AppProcess) {
		if parent != app {
			t.Fatal("wrong parent")
		}
		spawns++
	}
	app.Start()
	r.sim.Run(100000)
	if spawns == 0 || spawns != app.Spawned {
		t.Fatalf("spawns %d, recorded %d", spawns, app.Spawned)
	}
	if spawns < 7 || spawns > 11 {
		t.Fatalf("spawn count %d implausible for 100 ms / 10 ms", spawns)
	}
}

func TestResetAccounting(t *testing.T) {
	r := newRig(64)
	app := newApp(r, 10000)
	app.Start()
	r.sim.Run(100000)
	if app.Generated == 0 || app.Iterations == 0 {
		t.Fatal("no activity to reset")
	}
	app.ResetAccounting()
	if app.Generated != 0 || app.Iterations != 0 || app.BlockedPuts != 0 ||
		app.IOBlocks != 0 || app.Spawned != 0 {
		t.Fatal("app reset incomplete")
	}
	if app.Blocked() || app.AtBarrier() {
		t.Fatal("state flags should be clear")
	}

	// Fresh rig: the app above keeps rescheduling itself, so its simulator
	// never drains; the daemon check needs a quiescent one.
	r2 := newRig(64)
	d, _ := newDaemon(r2, forward.NewCF())
	r2.pipe.Put(resources.Sample{}, nil)
	r2.sim.RunAll()
	if d.SamplesForwarded == 0 {
		t.Fatal("daemon idle")
	}
	d.ResetAccounting()
	if d.SamplesForwarded != 0 || d.MessagesForwarded != 0 ||
		d.SamplesCollected != 0 || d.MessagesMerged != 0 {
		t.Fatal("daemon reset incomplete")
	}

	m := &MainProcess{Sim: r2.sim, CPU: r2.cpu, R: rng.New(1), CPUDist: rng.Constant{Value: 1},
		Msgs: &forward.MessagePool{}, Latencies: NewLatencyHistogram()}
	m.Receive(&forward.Message{Samples: []resources.Sample{{GenTime: 0}}})
	if m.SamplesReceived != 1 || m.Latencies.Count() != 1 {
		t.Fatal("main idle")
	}
	m.ResetAccounting()
	if m.SamplesReceived != 0 || m.Latencies.Count() != 0 || m.Latencies.Max() != 0 ||
		m.Latency.N() != 0 {
		t.Fatal("main reset incomplete")
	}
}
