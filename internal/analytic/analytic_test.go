package analytic

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLambdaEq1(t *testing.T) {
	p := DefaultParams()
	// 1/40000 * 1/1 * 1 = 25 messages/second = 2.5e-5 per microsecond.
	if !almost(p.Lambda(), 2.5e-5, 1e-12) {
		t.Fatalf("lambda %v", p.Lambda())
	}
	p.BatchSize = 32
	if !almost(p.Lambda(), 2.5e-5/32, 1e-15) {
		t.Fatal("batching must divide lambda")
	}
	p.AppProcs = 4
	if !almost(p.Lambda(), 4*2.5e-5/32, 1e-15) {
		t.Fatal("app processes must multiply lambda")
	}
}

func TestNOWEquations(t *testing.T) {
	p := DefaultParams()
	m := p.NOW()
	l := 2.5e-5
	if !almost(m.PdCPUUtil, l*267, 1e-12) { // eq (2)
		t.Fatalf("uPd %v", m.PdCPUUtil)
	}
	if !almost(m.PdNetUtil, 8*l*71, 1e-12) { // eq (3)
		t.Fatalf("uNet %v", m.PdNetUtil)
	}
	if !almost(m.ParadynCPUUtil, 8*l*3208, 1e-12) { // eq (5)
		t.Fatalf("uMain %v", m.ParadynCPUUtil)
	}
	if !almost(m.AppCPUUtil, 1-l*267, 1e-12) { // eq (6)
		t.Fatalf("uApp %v", m.AppCPUUtil)
	}
	wantLat := 267/(1-l*267) + 71/(1-8*l*71) // eq (4)
	if !almost(m.LatencyUS, wantLat, 1e-9) {
		t.Fatalf("latency %v, want %v", m.LatencyUS, wantLat)
	}
}

func TestBFReducesAnalyticOverhead(t *testing.T) {
	cf := DefaultParams()
	cf.SamplingPeriod = 5000
	bf := cf
	bf.BatchSize = 32
	mcf, mbf := cf.NOW(), bf.NOW()
	if mbf.PdCPUUtil >= mcf.PdCPUUtil/10 {
		t.Fatalf("batching should cut utilization ~32x: %v vs %v",
			mbf.PdCPUUtil, mcf.PdCPUUtil)
	}
	if mbf.LatencyUS >= mcf.LatencyUS {
		t.Fatal("lower load should reduce queueing latency")
	}
}

func TestSaturationDivergesLatency(t *testing.T) {
	p := DefaultParams()
	p.SamplingPeriod = 100 // absurdly fast sampling: main CPU saturates
	p.Nodes = 64
	m := p.NOW()
	if m.PdNetUtil != 1 {
		t.Fatalf("network should saturate: %v", m.PdNetUtil)
	}
	if !math.IsInf(m.LatencyUS, 1) {
		t.Fatalf("latency should diverge at saturation: %v", m.LatencyUS)
	}
}

func TestSMPEquations(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 16
	p.AppProcs = 32
	p.Pds = 2
	m := p.SMP()
	l := (1.0 / 40000) * 32 * 2
	if !almost(m.PdCPUUtil, l*267/16, 1e-12) { // eq (7)
		t.Fatalf("uPd %v", m.PdCPUUtil)
	}
	if !almost(m.ParadynCPUUtil, l*3208/16, 1e-12) { // eq (8)
		t.Fatalf("uMain %v", m.ParadynCPUUtil)
	}
	wantIS := (2*m.PdCPUUtil + m.ParadynCPUUtil) / 3 // eq (9)
	if !almost(m.ISCPUUtil, wantIS, 1e-12) {
		t.Fatalf("uIS %v, want %v", m.ISCPUUtil, wantIS)
	}
	if !almost(m.AppCPUUtil, 1-wantIS, 1e-12) { // eq (10)
		t.Fatal("uApp")
	}
	if !almost(m.PdNetUtil, l*71, 1e-12) { // eq (11)
		t.Fatal("uBus")
	}
}

// Eq (12), the SMP monitoring latency, at two CPU counts: the daemon's
// per-message CPU demand is spread over the n CPUs, the bus demand is not.
//
//	R = (D_Pd,CPU/n)/(1 - U_Pd,CPU) + D_Pd,bus/(1 - U_bus)
func TestSMPLatencyEq12(t *testing.T) {
	l := (1.0 / 40000) * 32 * 2 // eq (1) times Pds = 2
	uBus := l * 71              // eq (11)
	for _, n := range []float64{8, 16} {
		p := DefaultParams()
		p.Nodes, p.AppProcs, p.Pds = n, 32, 2
		uPd := l * 267 / n // eq (7)
		want := (267/n)/(1-uPd) + 71/(1-uBus)
		if got := p.SMP().LatencyUS; !almost(got, want, 1e-9) {
			t.Errorf("n=%v: latency %v, want %v", n, got, want)
		}
	}
}

func TestSMPMoreDaemonsRaiseISLoad(t *testing.T) {
	p1 := DefaultParams()
	p1.Nodes = 16
	p1.AppProcs = 32
	p4 := p1
	p4.Pds = 4
	if p4.SMP().PdNetUtil <= p1.SMP().PdNetUtil {
		t.Fatal("more daemons should raise bus load (eq 1 SMP form)")
	}
}

func TestMPPDirectMatchesNOW(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 256
	if p.MPPDirect() != p.NOW() {
		t.Fatal("MPP direct must equal the NOW equations")
	}
}

func TestMPPTreeEquations(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 256
	direct := p.MPPDirect()
	tree := p.MPPTree()
	// §4.4.2: tree forwarding costs extra daemon CPU (merge work)...
	if tree.PdCPUUtil <= direct.PdCPUUtil {
		t.Fatalf("tree uPd %v not above direct %v", tree.PdCPUUtil, direct.PdCPUUtil)
	}
	// ...and the root delivers merged traffic, so main sees fewer, larger
	// messages: eq (14) gives 2*lambda*D rather than n*lambda*D.
	if tree.ParadynCPUUtil >= direct.ParadynCPUUtil {
		t.Fatalf("tree main util %v should be below direct %v at 256 nodes",
			tree.ParadynCPUUtil, direct.ParadynCPUUtil)
	}
	// eq (13) hand-check for n=4: [2*l*D + 1*(l*D+2*l*Dm) + l*Dm]/4.
	p4 := DefaultParams()
	p4.Nodes = 4
	l := p4.Lambda()
	want := (2*l*267 + (l*267 + 2*l*267) + l*267) / 4
	if got := p4.MPPTree().PdCPUUtil; !almost(got, want, 1e-12) {
		t.Fatalf("eq13 n=4: got %v want %v", got, want)
	}
}

// Eqs (13)-(16), MPP with binary-tree forwarding, written out for two
// node counts with D_Pd,merge (150) unlike D_Pd,CPU (267), so a term that
// charges the wrong demand shows. The tree has n/2 leaves, n/2-1 interior
// nodes that also merge two children's streams, and one node with a
// single child:
//
//	(13) U_Pd,CPU = [(n/2)·λ·D_Pd,CPU + (n/2-1)·(λ·D_Pd,CPU + 2λ·D_Pd,merge) + λ·D_Pd,merge] / n
//	(14) U_Paradyn = 2·λ·D_Paradyn
//	(15) U_Net = [(n/2)·λ·D_Pd,Net + (n/2-1)·(λ·D_Pd,Net + 2λ·D_Pd,Net) + λ·D_Pd,Net] / n
//	(16) R = (D_Pd,CPU + D_Pd,merge)/(1 - U_Pd,CPU) + D_Pd,Net/(1 - U_Net)
//
// Eq (15) is the corrected form (see MPPTree). Both demands carry the
// coefficient n-1 in eq (13), so swapping them in every term is an
// identity; swapping them in any one term is not.
func TestMPPTreeEquationPins(t *testing.T) {
	l := 1.0 / 40000 // eq (1): one process, CF
	for _, c := range []struct{ n, leaves, interior float64 }{
		{4, 2, 1},
		{16, 8, 7},
	} {
		p := DefaultParams()
		p.Nodes = c.n
		p.DPdmCPU = 150
		m := p.MPPTree()
		uPd := (c.leaves*l*267 + c.interior*(l*267+2*l*150) + l*150) / c.n // eq (13)
		uNet := (c.leaves*l*71 + c.interior*(l*71+2*l*71) + l*71) / c.n    // eq (15)
		for _, v := range []struct {
			eq        string
			got, want float64
		}{
			{"(13) uPd", m.PdCPUUtil, uPd},
			{"(14) uMain", m.ParadynCPUUtil, 2 * l * 3208},
			{"(15) uNet", m.PdNetUtil, uNet},
			{"(16) latency", m.LatencyUS, (267+150)/(1-uPd) + 71/(1-uNet)},
			{"uApp", m.AppCPUUtil, 1 - uPd},
		} {
			if !almost(v.got, v.want, 1e-9) {
				t.Errorf("n=%v eq %s = %v, want %v", c.n, v.eq, v.got, v.want)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{SamplingPeriod: 0, BatchSize: 1, AppProcs: 1, Nodes: 1, Pds: 1},
		{SamplingPeriod: 1, BatchSize: 0, AppProcs: 1, Nodes: 1, Pds: 1},
		{SamplingPeriod: 1, BatchSize: 1, AppProcs: 0, Nodes: 1, Pds: 1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if DefaultParams().Validate() != nil {
		t.Fatal("defaults must validate")
	}
}

// Property: utilizations are in [0,1] and latency positive for any sane
// parameterization.
func TestQuickMetricsBounded(t *testing.T) {
	f := func(sp16, bs8, ap8, nodes8, pds4 uint8) bool {
		p := DefaultParams()
		p.SamplingPeriod = float64(sp16)*500 + 500
		p.BatchSize = float64(bs8%128) + 1
		p.AppProcs = float64(ap8%32) + 1
		p.Nodes = float64(nodes8%255) + 2
		p.Pds = float64(pds4%4) + 1
		for _, m := range []Metrics{p.NOW(), p.SMP(), p.MPPTree()} {
			for _, u := range []float64{m.PdCPUUtil, m.ParadynCPUUtil, m.ISCPUUtil, m.PdNetUtil} {
				if u < 0 || u > 1 {
					return false
				}
			}
			if m.LatencyUS <= 0 {
				return false
			}
			if m.AppCPUUtil > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
