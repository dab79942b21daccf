// Package forward defines the instrumentation-data forwarding machinery of
// the Paradyn IS model: the collect-and-forward (CF) and batch-and-forward
// (BF) scheduling policies (Figure 3 of the paper), the direct and
// binary-tree forwarding configurations (Figure 4), and the cost model that
// prices daemon CPU and network occupancy per forwarded message.
package forward

import (
	"fmt"

	"rocc/internal/resources"
	"rocc/internal/rng"
)

// Policy labels the family of a forwarding strategy, CF or BF, for table
// rows and titles; PolicyOf reads it off a Strategy, which is what selects
// how a Paradyn daemon schedules data forwarding.
type Policy int

const (
	// CF is collect-and-forward: every sample is forwarded as soon as it is
	// collected, costing one system call per sample. This is the policy of
	// the pre-release Paradyn IS.
	CF Policy = iota
	// BF is batch-and-forward: samples accumulate in a buffer until a batch
	// is full, then are forwarded with a single system call. This policy was
	// added to Paradyn release 1.0 based on the feedback from this study.
	BF
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case CF:
		return "CF"
	case BF:
		return "BF"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config selects a forwarding configuration for the MPP case.
type Config int

const (
	// Direct forwarding: every daemon sends straight to the main process.
	Direct Config = iota
	// Tree forwarding: daemons are logically arranged as a binary tree;
	// non-leaf daemons receive, merge, and relay their children's data.
	Tree
)

// String implements fmt.Stringer.
func (c Config) String() string {
	switch c {
	case Direct:
		return "direct"
	case Tree:
		return "tree"
	}
	return fmt.Sprintf("Config(%d)", int(c))
}

// Message is one forwarding unit: a single sample under CF or a batch
// under BF. Hops counts store-and-forward stages for tree forwarding.
// Messages live in a MessagePool, which records whether each one is
// currently released.
type Message struct {
	Samples  []resources.Sample
	FromNode int
	Hops     int

	released bool
}

// CostModel prices the daemon work of forwarding. A message costs one
// fixed per-message term (the system call and protocol processing that CF
// pays per sample and BF amortizes over a batch) plus a small per-extra-
// sample term (marshaling each additional sample), on both the CPU and the
// network. Merge prices the extra CPU a non-leaf tree daemon spends
// receiving and merging one incoming message (the D_Pdm,CPU of eq. 13).
type CostModel struct {
	PerMsgCPU    rng.Dist // Table 2: exponential(267)
	PerSampleCPU float64  // incremental CPU per sample beyond the first
	PerMsgNet    rng.Dist // Table 2: exponential(71)
	PerSampleNet float64  // incremental network time per extra sample
	Merge        rng.Dist // tree-forwarding merge CPU per received message
}

// DefaultCostModel returns the Table 2 parameterization. The per-sample
// increments are chosen so that the per-sample CPU cost at batch size 128
// is a few percent of the CF cost, reproducing the super-linear initial
// drop and the leveling-off ("knee") of Figure 19.
func DefaultCostModel() CostModel {
	return CostModel{
		PerMsgCPU:    rng.Exponential{MeanVal: 267},
		PerSampleCPU: 8,
		PerMsgNet:    rng.Exponential{MeanVal: 71},
		PerSampleNet: 2,
		Merge:        rng.Exponential{MeanVal: 267},
	}
}

// MsgCPU samples the CPU demand to collect and forward a message of
// nsamples samples.
func (c CostModel) MsgCPU(r *rng.Stream, nsamples int) float64 {
	if nsamples <= 0 {
		return 0
	}
	return c.PerMsgCPU.Sample(r) + float64(c.PerSampleCPU*float64(nsamples-1))
}

// MsgNet samples the network demand to transmit a message of nsamples
// samples.
func (c CostModel) MsgNet(r *rng.Stream, nsamples int) float64 {
	if nsamples <= 0 {
		return 0
	}
	return c.PerMsgNet.Sample(r) + float64(c.PerSampleNet*float64(nsamples-1))
}

// MergeCPU samples the CPU demand for a non-leaf daemon to merge one
// received message.
func (c CostModel) MergeCPU(r *rng.Stream) float64 { return c.Merge.Sample(r) }

// Topology routes daemon output: either to another node's daemon or to the
// main Paradyn process.
type Topology interface {
	// Next returns the next hop for traffic leaving node. toMain reports
	// whether the destination is the main Paradyn process (in which case
	// parent is meaningless).
	Next(node int) (parent int, toMain bool)
	// Children returns the child nodes whose daemons forward to node
	// (empty for direct forwarding and for tree leaves).
	Children(node int) []int
}

// DirectTopology sends every daemon's output straight to the main process.
type DirectTopology struct{}

// Next implements Topology.
func (DirectTopology) Next(int) (int, bool) { return 0, true }

// Children implements Topology.
func (DirectTopology) Children(int) []int { return nil }

// TreeTopology arranges nodes 0..N-1 as a complete binary tree rooted at
// node 0; the root forwards to the main process. Node i's parent is
// (i-1)/2 and its children are 2i+1 and 2i+2 where those exist.
type TreeTopology struct{ Nodes int }

// Next implements Topology.
func (t TreeTopology) Next(node int) (int, bool) {
	if node <= 0 {
		return 0, true
	}
	return (node - 1) / 2, false
}

// Children implements Topology.
func (t TreeTopology) Children(node int) []int {
	var out []int
	if l := 2*node + 1; l < t.Nodes {
		out = append(out, l)
	}
	if r := 2*node + 2; r < t.Nodes {
		out = append(out, r)
	}
	return out
}

// Depth returns the number of store-and-forward hops from node to the main
// process (1 for the root, 2 for its children, ...).
func (t TreeTopology) Depth(node int) int {
	d := 1
	for node > 0 {
		node = (node - 1) / 2
		d++
	}
	return d
}

// NewTopology builds the topology for a forwarding configuration.
func NewTopology(cfg Config, nodes int) Topology {
	if cfg == Tree {
		return TreeTopology{Nodes: nodes}
	}
	return DirectTopology{}
}
