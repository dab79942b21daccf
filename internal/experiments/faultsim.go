package experiments

import (
	"fmt"
	"io"
	"strings"

	"rocc/internal/core"
	"rocc/internal/faults"
	"rocc/internal/forward"
	"rocc/internal/par"
	"rocc/internal/report"
)

func init() {
	register("fault-survivability",
		"Fault injection: IS survivability under message loss across architectures and policies",
		func(w io.Writer, opt Options) error {
			return FaultSweep(w, opt, DefaultFaultSweep())
		})
}

// FaultSweepOptions parameterizes the survivability sweep shared by the
// fault-survivability experiment and cmd/roccfault.
type FaultSweepOptions struct {
	// LossLevels are the injected per-attempt message-loss probabilities
	// swept as the fault-intensity axis.
	LossLevels []float64
	// DupFraction sets the duplication probability as a fraction of the
	// loss probability at each level.
	DupFraction float64
	// CrashMTBFUS, when positive, also injects transient daemon crashes
	// with this mean up-time (exponential) at every intensity level.
	CrashMTBFUS float64
	// SqueezeMTBFUS, when positive, also injects pipe capacity squeezes.
	SqueezeMTBFUS float64
	// SamplingPeriodUS is the instrumentation sampling period.
	SamplingPeriodUS float64
	// Nodes is the node count (CPU count for SMP).
	Nodes int
	// Policy, when non-nil, pins the policy axis (roccfault -policy):
	// only matrix rows of its family run (cf keeps the CF rows, bf:<n>
	// and abf the BF rows), and they run this strategy. Nil sweeps the
	// full CF × BF matrix, BF at faultSweepBatch.
	Policy forward.Strategy
}

// DefaultFaultSweep returns the default sweep: 1%, 5%, and 10% loss with
// proportional duplication, on 8 nodes at a 20 ms sampling period.
func DefaultFaultSweep() FaultSweepOptions {
	return FaultSweepOptions{
		LossLevels:       []float64{0.01, 0.05, 0.10},
		DupFraction:      0.5,
		SamplingPeriodUS: 20000,
		Nodes:            8,
	}
}

// faultSweepBatch is the sweep's BF batch size.
const faultSweepBatch = 16

// faultVariant is one architecture × policy × forwarding combination.
type faultVariant struct {
	arch     core.Arch
	strategy forward.Strategy
	fwd      forward.Config
}

// label renders the row's arch, policy and forwarding columns: the
// policy is CF or BF for a fixed strategy, the upper-cased spec of an
// adaptive one.
func (v faultVariant) label() (string, string, string) {
	p, batch := forward.PolicyOf(v.strategy)
	policy := p.String()
	if batch == 0 {
		policy = strings.ToUpper(v.strategy.String())
	}
	return v.arch.String(), policy, v.fwd.String()
}

// faultVariants enumerates the survivability matrix: CF and BF on each
// architecture, plus tree forwarding for MPP (the only architecture the
// model supports it on). A non-nil pin keeps only the rows of its policy
// family (abf pins to the BF rows) and runs them under the pin.
func faultVariants(pin forward.Strategy) []faultVariant {
	cf, bf := forward.NewCF(), forward.NewFixedBF(faultSweepBatch)
	all := []faultVariant{
		{core.NOW, cf, forward.Direct},
		{core.NOW, bf, forward.Direct},
		{core.SMP, cf, forward.Direct},
		{core.SMP, bf, forward.Direct},
		{core.MPP, cf, forward.Direct},
		{core.MPP, cf, forward.Tree},
		{core.MPP, bf, forward.Direct},
		{core.MPP, bf, forward.Tree},
	}
	if pin == nil {
		return all
	}
	family, _ := forward.PolicyOf(pin)
	var out []faultVariant
	for _, v := range all {
		if p, _ := forward.PolicyOf(v.strategy); p == family {
			v.strategy = pin
			out = append(out, v)
		}
	}
	return out
}

// FaultSweep runs the survivability table: for every architecture ×
// policy × forwarding variant and every fault-intensity level, one run
// without resilience and one with ack/retransmission plus graceful
// degradation, reporting the fraction of generated samples that survived
// to the main Paradyn process. Identical options and seeds reproduce the
// table byte-identically.
func FaultSweep(w io.Writer, opt Options, sw FaultSweepOptions) error {
	opt = opt.normalized()
	if len(sw.LossLevels) == 0 {
		sw.LossLevels = DefaultFaultSweep().LossLevels
	}
	if sw.Nodes <= 0 {
		sw.Nodes = 8
	}
	if sw.SamplingPeriodUS <= 0 {
		sw.SamplingPeriodUS = 20000
	}

	title := "IS survivability under injected faults"
	if sw.CrashMTBFUS > 0 {
		title += fmt.Sprintf(" (+ daemon crashes, MTBF %.0f ms)", sw.CrashMTBFUS/1000)
	}
	if sw.SqueezeMTBFUS > 0 {
		title += " (+ pipe squeezes)"
	}
	t := report.NewTable(title,
		"arch", "policy", "fwd", "loss %",
		"delivered % (bare)", "delivered % (resilient)",
		"retransmits", "giveups", "recovery (ms)", "crashes", "degraded (s)")

	// Flatten the variant × intensity × {bare, resilient} cube into one
	// work list and fan it out; each cell is a share-nothing model run.
	// Rows are composed afterwards in the fixed enumeration order, so the
	// table stays byte-identical at any pool size.
	type cell struct {
		v    faultVariant
		loss float64
		plan faults.Plan
	}
	var cells []cell
	for _, v := range faultVariants(sw.Policy) {
		for li, loss := range sw.LossLevels {
			plan := faults.Plan{
				Seed:        core.DeriveSeed(opt.Seed, core.SeedStreamFault, uint64(li)),
				Loss:        loss,
				Dup:         loss * sw.DupFraction,
				CrashMTBF:   sw.CrashMTBFUS,
				SqueezeMTBF: sw.SqueezeMTBFUS,
			}
			cells = append(cells, cell{v: v, loss: loss, plan: plan})
			plan.Resilience = faults.Resilience{Retransmit: true, Degrade: true}
			cells = append(cells, cell{v: v, loss: loss, plan: plan})
		}
	}
	results, err := par.Map(opt.Parallel, cells, func(_ int, c cell) (core.Result, error) {
		return runFaultVariant(c.v, sw, opt, c.plan)
	})
	if err != nil {
		return err
	}
	for k := 0; k < len(cells); k += 2 {
		bare, res := results[k], results[k+1]
		arch, pol, fwd := cells[k].v.label()
		t.AddRow(arch, pol, fwd, report.F(cells[k].loss*100),
			report.F(delivered(bare)), report.F(delivered(res)),
			fmt.Sprintf("%d", res.Retransmits),
			fmt.Sprintf("%d", res.RetransmitGiveUps),
			report.F(res.RecoveryMeanSec*1000),
			fmt.Sprintf("%d", res.Crashes),
			report.F(res.DegradedResidencySec))
	}
	return t.Render(w)
}

// delivered is the survivability metric: the percentage of generated
// samples received at the main process.
func delivered(r core.Result) float64 {
	if r.SamplesGenerated == 0 {
		return 0
	}
	return float64(r.SamplesReceived) / float64(r.SamplesGenerated) * 100
}

func runFaultVariant(v faultVariant, sw FaultSweepOptions, opt Options, plan faults.Plan) (core.Result, error) {
	cfg := core.DefaultConfig()
	cfg.Arch = v.arch
	cfg.Nodes = sw.Nodes
	cfg.Forwarding = v.fwd
	cfg.Strategy = v.strategy
	if v.arch == core.SMP {
		// SMP: AppProcs is the machine total, one process per CPU.
		cfg.AppProcs = sw.Nodes
	}
	cfg.SamplingPeriod = sw.SamplingPeriodUS
	cfg.Faults = &plan
	return runOne(cfg, opt)
}
