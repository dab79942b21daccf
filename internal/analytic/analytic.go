// Package analytic implements the "back-of-the-envelope" operational
// analysis of Section 3 of the paper: equations (1)-(16) computing Paradyn
// daemon CPU utilization, main-process utilization, monitoring latency,
// and application CPU utilization for the NOW, SMP, and MPP (direct and
// binary-tree forwarding) cases under the flow-balance assumption.
//
// All times are microseconds; utilizations are fractions in [0, 1] unless
// the offered load exceeds capacity, in which case utilization saturates
// at 1 and latency diverges to +Inf — the analytic counterpart of an
// unstable queue.
package analytic

import (
	"errors"
	"math"
)

// Params parameterizes the operational model, mirroring Table 2.
type Params struct {
	SamplingPeriod float64 // microseconds between samples per app process
	BatchSize      float64 // samples per forwarded message (1 = CF)
	AppProcs       float64 // application processes per node (total for SMP)
	Nodes          float64 // number of nodes (CPUs for SMP)
	Pds            float64 // number of Paradyn daemons (SMP factor)

	DPdCPU      float64 // mean daemon CPU demand per message (267)
	DPdNet      float64 // mean daemon network demand per message (71)
	DPdmCPU     float64 // mean merge CPU demand per relayed message (tree)
	DParadynCPU float64 // mean main-process CPU demand per message (3208)
}

// DefaultParams returns the Table 2 parameterization with the typical
// configuration (8 nodes, 1 app process, 1 daemon, 40 ms sampling, CF).
func DefaultParams() Params {
	return Params{
		SamplingPeriod: 40000,
		BatchSize:      1,
		AppProcs:       1,
		Nodes:          8,
		Pds:            1,
		DPdCPU:         267,
		DPdNet:         71,
		DPdmCPU:        267,
		DParadynCPU:    3208,
	}
}

// Validate reports parameterization errors.
func (p Params) Validate() error {
	if p.SamplingPeriod <= 0 {
		return errors.New("analytic: SamplingPeriod must be positive")
	}
	if p.BatchSize < 1 {
		return errors.New("analytic: BatchSize must be >= 1")
	}
	if p.AppProcs < 1 || p.Nodes < 1 || p.Pds < 1 {
		return errors.New("analytic: AppProcs, Nodes, Pds must be >= 1")
	}
	return nil
}

// clamp1 saturates a utilization at 1.
func clamp1(u float64) float64 {
	if u > 1 {
		return 1
	}
	return u
}

// residence returns D/(1-u), diverging to +Inf at or beyond saturation.
func residence(d, u float64) float64 {
	if u >= 1 {
		return math.Inf(1)
	}
	return d / (1 - u)
}

// Lambda is equation (1): the per-node arrival rate of Paradyn daemon
// messages, in messages per microsecond.
func (p Params) Lambda() float64 {
	return (1 / p.SamplingPeriod) * (1 / p.BatchSize) * p.AppProcs
}

// Metrics is the set of analytic outputs plotted in Figures 9-15.
type Metrics struct {
	PdCPUUtil      float64 // daemon CPU utilization per node (fraction)
	ParadynCPUUtil float64 // main Paradyn process CPU utilization
	ISCPUUtil      float64 // overall IS utilization (SMP, eq. 9)
	AppCPUUtil     float64 // application CPU utilization per node
	PdNetUtil      float64 // network utilization by IS traffic
	LatencyUS      float64 // monitoring latency per sample (microseconds)
}

// NOW computes equations (1)-(6) for the network-of-workstations case
// (also the MPP direct-forwarding case, §3.3).
func (p Params) NOW() Metrics {
	l := p.Lambda()
	uPd := clamp1(l * p.DPdCPU)            // eq. (2)
	uNet := clamp1(p.Nodes * l * p.DPdNet) // eq. (3)
	lat := residence(p.DPdCPU, uPd) +      // eq. (4)
		residence(p.DPdNet, uNet)
	uMain := clamp1(p.Nodes * l * p.DParadynCPU) // eq. (5)
	return Metrics{
		PdCPUUtil:      uPd,
		ParadynCPUUtil: uMain,
		ISCPUUtil:      clamp1(uPd + uMain/p.Nodes),
		AppCPUUtil:     1 - uPd, // eq. (6)
		PdNetUtil:      uNet,
		LatencyUS:      lat,
	}
}

// SMP computes equations (7)-(12) for the shared-memory case: arrival
// rate scales with the number of daemons, demands are divided across the
// n CPUs, and the interconnect is the shared bus.
func (p Params) SMP() Metrics {
	l := p.Lambda() * p.Pds
	n := p.Nodes
	uPd := clamp1(l * p.DPdCPU / n)                  // eq. (7)
	uMain := clamp1(l * p.DParadynCPU / n)           // eq. (8)
	uIS := clamp1((p.Pds*uPd + uMain) / (p.Pds + 1)) // eq. (9)
	uBus := clamp1(l * p.DPdNet)                     // eq. (11)
	lat := residence(p.DPdCPU/n, uPd) +              // eq. (12)
		residence(p.DPdNet, uBus)
	return Metrics{
		PdCPUUtil:      uPd,
		ParadynCPUUtil: uMain,
		ISCPUUtil:      uIS,
		AppCPUUtil:     1 - uIS, // eq. (10)
		PdNetUtil:      uBus,
		LatencyUS:      lat,
	}
}

// MPPDirect is the MPP case with direct forwarding; per §3.3 it reduces
// to the NOW equations.
func (p Params) MPPDirect() Metrics { return p.NOW() }

// MPPTree computes equations (13)-(16) for binary-tree forwarding on an
// MPP with n nodes (n assumed a power of two by the paper's derivation):
// n/2 leaves forward only their own data; n/2-1 interior nodes also merge
// two children's streams; one node has a single child.
//
// Note: equation (15) as printed in the paper includes a D_Pd,CPU term in
// the network utilization, an evident typo for D_Pd,Network; the
// corrected form is implemented here.
func (p Params) MPPTree() Metrics {
	l := p.Lambda()
	n := p.Nodes
	half := n / 2
	// eq. (13)
	cpuNum := half*l*p.DPdCPU +
		(half-1)*(l*p.DPdCPU+2*l*p.DPdmCPU) +
		l*p.DPdmCPU
	uPd := clamp1(cpuNum / n)
	// eq. (14): the root delivers merged messages at twice the per-node rate.
	uMain := clamp1(2 * l * p.DParadynCPU)
	// eq. (15), corrected: interior nodes transmit their own message plus
	// two relayed messages.
	netNum := half*l*p.DPdNet +
		(half-1)*(l*p.DPdNet+2*l*p.DPdNet) +
		l*p.DPdNet
	uNet := clamp1(netNum / n)
	// eq. (16)
	lat := residence(p.DPdCPU+p.DPdmCPU, uPd) + residence(p.DPdNet, uNet)
	return Metrics{
		PdCPUUtil:      uPd,
		ParadynCPUUtil: uMain,
		ISCPUUtil:      clamp1(uPd + uMain/n),
		AppCPUUtil:     1 - uPd,
		PdNetUtil:      uNet,
		LatencyUS:      lat,
	}
}
