package core

import (
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"

	"rocc/internal/des"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/par"
	"rocc/internal/rng"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// saturatedCF is Table 4's heaviest cell: NOW, 50 nodes, CF, 2 ms
// sampling, where main's backlog grows the host CPU's ready ring to
// thousands of requests within a quarter second.
func saturatedCF() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 50
	cfg.SamplingPeriod = 2000
	cfg.Duration = 2.5e5
	return cfg
}

// recycleCells are runs whose rings and calendars differ widely in size,
// so that, run back to back, each draws storage a larger or a smaller run
// gave back: the saturated CF cell, a small BF 128 cell, MPP 256 with tree
// forwarding and 8-sample pipes (blocked writers), and a fault-plan run.
func recycleCells() []Config {
	bf := DefaultConfig()
	bf.Nodes = 5
	bf.SamplingPeriod = 2000
	bf.Strategy = forward.NewFixedBF(128)
	bf.Duration = 2.5e5

	mpp := DefaultConfig()
	mpp.Arch = MPP
	mpp.Nodes = 256
	mpp.Forwarding = forward.Tree
	mpp.PipeCapacity = 8
	mpp.Duration = 1.5e5

	chaos := DefaultConfig()
	chaos.Nodes = 16
	chaos.SamplingPeriod = 2000
	chaos.Duration = 3e5
	chaos.Faults = &faults.Plan{
		Seed: 3, Loss: 0.05, Dup: 0.05, DelayProb: 0.1, AckLoss: 0.05,
		CrashMTBF: 1e5, CrashDowntime: rng.Exponential{MeanVal: 50000},
		SqueezeMTBF: 1e5, SqueezeCapFrac: 0.1,
		Resilience: faults.Resilience{Retransmit: true, Degrade: true},
	}
	return []Config{saturatedCF(), bf, mpp, chaos}
}

func resultJSON(t *testing.T, r Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Simulate recycles storage only: a mix of runs through it, back to back
// and concurrently, gives the same Result bytes as a fresh New and Run of
// each config, under either calendar and at any worker count. Under -race
// this also exercises the pools from several goroutines at once.
func TestSimulateRecyclingKeepsResults(t *testing.T) {
	for _, kind := range []des.CalendarKind{des.CalendarHeap, des.CalendarBucket} {
		cells := recycleCells()
		want := make([]string, len(cells))
		for i := range cells {
			cells[i].Calendar = kind
			want[i] = resultJSON(t, mustRun(t, cells[i]))
		}
		// Each cell runs twice, after two different cells.
		order := []int{0, 1, 2, 3, 1, 0, 3, 2}
		for _, workers := range []int{1, 4} {
			got, err := par.Map(workers, order, func(_ int, i int) (Result, error) {
				return Simulate(cells[i])
			})
			if err != nil {
				t.Fatal(err)
			}
			for k, i := range order {
				if s := resultJSON(t, got[k]); s != want[i] {
					t.Errorf("%v calendar, %d workers, job %d (cell %d): Simulate differs from New+Run\n got %s\nwant %s",
						kind, workers, k, i, s, want[i])
				}
			}
		}
	}
}

// totalAlloc returns the bytes fn allocates.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A second Simulate of the saturated CF cell allocates about what New's
// own assembly does: its rings, calendar arrays and events come from the
// run before. The slack covers what the run itself still allocates (its
// message pool, network requests, CPU slots); without recycling the run
// allocates several times New's bytes. GC is held off so the pools keep
// what the first run gave back, and GOMAXPROCS is 1 so the goroutine
// cannot move to a P whose pool cache lacks it. Skipped under -race,
// where sync.Pool drops items at random on purpose.
func TestSimulateReusesStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := saturatedCF()
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	var m *Model
	newBytes := totalAlloc(func() {
		var err error
		if m, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	m.release()
	simBytes := totalAlloc(func() {
		if _, err := Simulate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	const slack = 64 << 10
	if simBytes > newBytes+slack {
		t.Fatalf("second Simulate allocated %d B; New alone %d B, slack %d B", simBytes, newBytes, slack)
	}
	t.Logf("second Simulate %d B, New %d B", simBytes, newBytes)
}

// storeCells are three runs whose stores differ in shape, so that a
// record or pointer release failed to clear would carry into the next:
// A, NOW-50 with CF; B, SMP-16 with 16 application processes and two
// daemons; C, MPP-8 with tree forwarding, the fault cocktail and forking
// application processes, whose children and their pipes live outside the
// store.
func storeCells() []Config {
	smp := DefaultConfig()
	smp.Arch = SMP
	smp.Nodes = 16
	smp.AppProcs = 16
	smp.Pds = 2
	smp.SamplingPeriod = 2000
	smp.Duration = 2.5e5

	mpp := DefaultConfig()
	mpp.Arch = MPP
	mpp.Nodes = 8
	mpp.Forwarding = forward.Tree
	mpp.SamplingPeriod = 5000
	mpp.Duration = 2e6
	mpp.Detailed.SpawnPeriod = 2e5
	mpp.Faults = recycleCells()[3].Faults
	return []Config{saturatedCF(), smp, mpp}
}

// Runs A, B, C and then A, B, C again through Simulate in one process,
// with the collector off so that each New builds into the store the run
// before gave back, give the same bytes in both rounds and the same bytes
// as a model that never touched the pool.
func TestSimulateStoreReuseIsDeterministic(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cells := storeCells()
	want := make([]string, len(cells))
	for i, cfg := range cells {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultJSON(t, m.Run())
		if i == 2 && len(m.Apps) <= cfg.Nodes*cfg.AppProcs {
			t.Fatalf("cell C spawned no children: %d application processes", len(m.Apps))
		}
	}
	for round := 0; round < 2; round++ {
		for i, cfg := range cells {
			res, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, res); got != want[i] {
				t.Errorf("round %d, cell %c: Simulate differs from a fresh model\n got %s\nwant %s",
					round, 'A'+i, got, want[i])
			}
		}
	}
}

// After a warm Simulate, New for NOW-50 builds every per-node record into
// the store that run gave back: what it still allocates is the model's
// singletons (simulator, histogram, message pool), the daemons' strategy
// clones and delivery closures. Assembling the same model from fresh
// storage took 92.5 KB. GC and GOMAXPROCS are held as in
// TestSimulateReusesStorage.
func TestNewReusesStore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := saturatedCF()
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	var m *Model
	newBytes := totalAlloc(func() {
		var err error
		if m, err = New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	m.release()
	const limit = 30 << 10
	if newBytes > limit {
		t.Fatalf("New after a warm Simulate allocated %d B, limit %d B", newBytes, limit)
	}
	t.Logf("New after a warm Simulate: %d B", newBytes)
}
