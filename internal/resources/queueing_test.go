package resources

import (
	"math"
	"testing"

	"rocc/internal/des"
	"rocc/internal/rng"
	"rocc/internal/stats"
)

// Queueing-theory referees: each resource, fed Poisson arrivals with
// exponential demands, must reproduce the exact mean response time of
// its textbook queue. The closed form has to fall inside a 99% Student-t
// interval over independent replications (stats.MeanCI, built on
// stats.TInvCDF). Seeds are fixed, so every run draws the same samples.

const (
	refereeReps      = 10    // independent replications per referee
	refereeCustomers = 60000 // arrivals per replication
	refereeWarmup    = 5000  // initial arrivals dropped from the mean
	refereeLevel     = 0.99
)

// submitFunc is the Submit method shared by CPU and Network.
type submitFunc func(owner string, length float64, onDone func())

// meanResponses drives a fresh resource per replication with Poisson
// arrivals (mean interarrival meanIA µs) and exponential demands (mean
// meanD µs), and returns each replication's mean response time over the
// arrivals after the warmup.
func meanResponses(seed uint64, newResource func(*des.Simulator) submitFunc, meanIA, meanD float64) []float64 {
	means := make([]float64, refereeReps)
	for r := range means {
		root := rng.New(seed + uint64(r))
		arrivals, demands := root.Derive(1), root.Derive(2)
		sim := des.New()
		submit := newResource(sim)
		var sum float64
		var arrived int
		var arrive func()
		arrive = func() {
			i, start := arrived, sim.Now()
			arrived++
			submit("job", demands.Exp(meanD), func() {
				if i >= refereeWarmup {
					sum += sim.Now() - start
				}
			})
			if arrived < refereeCustomers {
				sim.Schedule(arrivals.Exp(meanIA), arrive)
			}
		}
		sim.Schedule(arrivals.Exp(meanIA), arrive)
		sim.RunAll()
		means[r] = sum / float64(refereeCustomers-refereeWarmup)
	}
	return means
}

// checkReferee asserts that want lies in the replications' 99% interval.
func checkReferee(t *testing.T, name string, means []float64, want float64) {
	t.Helper()
	ci, err := stats.MeanCI(means, refereeLevel)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%s: simulated %.2f ± %.2f µs (99%% CI), exact %.2f µs", name, ci.Mean, ci.HalfWidth, want)
	if !ci.Contains(want) {
		t.Fatalf("%s: exact mean response %.2f µs outside the 99%% interval %.2f ± %.2f",
			name, want, ci.Mean, ci.HalfWidth)
	}
}

// erlangC is the probability that an arrival waits in an M/M/c queue with
// offered load a = λ·D Erlangs.
func erlangC(c int, a float64) float64 {
	rho := a / float64(c)
	term, sum := 1.0, 0.0 // term = a^k / k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - rho)
	return tail / (sum + tail)
}

func TestErlangCKnownValue(t *testing.T) {
	// c=2, a=1: P(wait) = (1/2 · 2) / (1 + 1 + 1) = 1/3.
	if got := erlangC(2, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("erlangC(2, 1) = %v, want 1/3", got)
	}
}

// TestCPURoundRobinMM1 checks the single-core round-robin CPU against
// M/M/1: with exponential demands the mean response is D/(1−ρ) whatever
// the quantum, so a quantum below the mean demand (most jobs timesliced)
// and one above it (most jobs run to completion) must both match.
func TestCPURoundRobinMM1(t *testing.T) {
	const d, rho = 1000.0, 0.7
	want := d / (1 - rho)
	for _, tc := range []struct {
		name    string
		quantum float64
		seed    uint64
	}{
		{"quantum below mean demand", 250, 101},
		{"quantum above mean demand", 4000, 201},
	} {
		means := meanResponses(tc.seed, func(sim *des.Simulator) submitFunc {
			return NewCPU(sim, 1, tc.quantum).Submit
		}, d/rho, d)
		checkReferee(t, tc.name, means, want)
	}
}

// TestCPUPoolMMc checks an SMP pool of c cores against M/M/c: the mean
// response is D + C(c, a)·D/(c − a), with C the Erlang C formula.
func TestCPUPoolMMc(t *testing.T) {
	const d, cores, rho = 1000.0, 4, 0.8
	a := rho * cores
	want := d + erlangC(cores, a)*d/(cores-a)
	means := meanResponses(301, func(sim *des.Simulator) submitFunc {
		return NewCPU(sim, cores, 10000).Submit
	}, d/a, d)
	checkReferee(t, "M/M/4 CPU pool", means, want)
}

// TestContendedNetworkMM1 checks the single FIFO channel against M/M/1.
func TestContendedNetworkMM1(t *testing.T) {
	const d, rho = 500.0, 0.6
	means := meanResponses(401, func(sim *des.Simulator) submitFunc {
		return NewNetwork(sim, true).Submit
	}, d/rho, d)
	checkReferee(t, "M/M/1 contended network", means, d/(1-rho))
}

// TestContentionFreeNetworkMMInf checks the contention-free network
// against M/M/∞: no transfer ever waits, so the mean response is D even
// with many transfers in flight.
func TestContentionFreeNetworkMMInf(t *testing.T) {
	const d, inFlight = 500.0, 10.0
	means := meanResponses(601, func(sim *des.Simulator) submitFunc {
		return NewNetwork(sim, false).Submit
	}, d/inFlight, d)
	checkReferee(t, "M/M/inf contention-free network", means, d)
}
