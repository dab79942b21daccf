package xval

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"rocc/internal/report"
)

// optF formats an OptFloat for the text tables: "-" when missing.
func optF(o OptFloat) string {
	if o.IsMissing() {
		return "-"
	}
	return report.F(float64(o))
}

// coveredStr renders a CI-coverage verdict.
func coveredStr(c *bool) string {
	switch {
	case c == nil:
		return "-"
	case *c:
		return "in"
	}
	return "OUT"
}

// RenderText writes the full dashboard: per-group detail tables covering
// every cell and metric, the relative-error heatmap, the per-group
// summaries, and the per-architecture/policy worst-case table.
func (r *Report) RenderText(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"ROCC cross-validation: grid=%s reference=simulation seed=%d duration=%gs reps=%d ci=%g%%\n\n",
		r.Grid, r.Seed, r.DurationSec, r.Reps, r.CILevel*100); err != nil {
		return err
	}

	cols := []string{"cell", "metric", "simulation", "±CI", "analytic", "err", "ci?"}
	group := ""
	var t *report.Table
	flush := func() error {
		if t == nil {
			return nil
		}
		if err := t.Render(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	for _, cell := range r.Cells {
		if cell.Group != group {
			if err := flush(); err != nil {
				return err
			}
			group = cell.Group
			t = report.NewTable("group "+group, cols...)
		}
		label := fmt.Sprintf("%s (%s)", cell.ID, cell.Label)
		for _, mc := range cell.Metrics {
			errStr := optF(mc.RelError)
			if mc.Diverged {
				errStr = "DIVERGED"
			}
			t.AddRow(label, mc.Metric, optF(mc.Simulation), optF(mc.HalfWidth),
				optF(mc.Analytic), errStr, coveredStr(mc.CICovered))
			label = "" // only on the first metric row of the cell
		}
	}
	if err := flush(); err != nil {
		return err
	}

	if err := r.heatmap().Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}

	if err := renderSummaries(w, "summary by grid group (vs simulation)",
		"group", r.GroupSummaries); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return renderSummaries(w, "worst-case divergence by architecture/policy",
		"arch/policy", r.ArchPolicySummaries)
}

// heatmap builds the relative-error surface of the analytic model vs the
// simulation: rows are grid cells, columns the compared metrics; diverged
// cells are +Inf ('!'), incomparable cells NaN (blank).
func (r *Report) heatmap() *report.Heatmap {
	h := &report.Heatmap{
		Title:     "relative error heatmap: analytic vs simulation",
		ColLabels: MetricNames,
	}
	for _, cell := range r.Cells {
		row := make([]float64, 0, len(cell.Metrics))
		for _, mc := range cell.Metrics {
			v := float64(mc.RelError)
			if mc.Diverged {
				v = math.Inf(1)
			}
			row = append(row, v)
		}
		h.RowLabels = append(h.RowLabels, cell.ID)
		h.Values = append(h.Values, row)
	}
	return h
}

func renderSummaries(w io.Writer, title, scopeCol string, sums []Summary) error {
	t := report.NewTable(title, scopeCol, "backend", "metric", "cells", "compared",
		"mean err", "max err", "worst cell", "ci cover", "diverged", "missing")
	for _, s := range sums {
		cover := "-"
		if s.CIEligible > 0 {
			cover = fmt.Sprintf("%d/%d", s.CICovered, s.CIEligible)
		}
		t.AddRow(s.Scope, "analytic", s.Metric,
			fmt.Sprint(s.Cells), fmt.Sprint(s.Compared),
			optF(s.MeanRelErr), optF(s.MaxRelErr), s.WorstCell,
			cover, fmt.Sprint(s.Diverged), fmt.Sprint(s.MissingData))
	}
	return t.Render(w)
}

// WriteJSON writes the report as indented, deterministic JSON (struct
// field order; OptFloat encodes missing as null and infinities as
// "+inf"/"-inf").
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
