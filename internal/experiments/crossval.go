package experiments

import (
	"io"

	"rocc/internal/scenario"
	"rocc/internal/xval"
)

func init() {
	register("ext-crossval", "Extension: cross-validation dashboard — analytic vs simulation", runExtCrossVal)
}

// runExtCrossVal runs the cross-validation dashboard over the smoke grid
// (baseline + Table 3 + Table 4) at the experiment scale. The standalone
// roccxval command covers the larger paper/full grids.
func runExtCrossVal(w io.Writer, opt Options) error {
	opt = opt.normalized()
	xopt := xval.DefaultOptions()
	xopt.Seed = opt.Seed
	xopt.DurationUS = opt.DurationUS
	xopt.Reps = opt.Reps
	xopt.Workers = opt.Parallel
	rep, err := xval.Run(scenario.SmokeGrid(), xopt)
	if err != nil {
		return err
	}
	return rep.RenderText(w)
}
