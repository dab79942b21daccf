package report

import (
	"fmt"
	"io"
	"strings"
)

// StageRow is one stage of a latency decomposition, ready to render:
// label, dwell statistics in microseconds, and the stage's share of the
// total (percent). core.StageRows builds the rows from a run's stage
// decomposition, live or replayed from its trace by roccviz -lat.
type StageRow struct {
	Stage    string
	MeanUS   float64
	P50US    float64
	P95US    float64
	P99US    float64
	SharePct float64
}

// Waterfall renders a latency-decomposition waterfall: one line per
// stage with mean/p50/p95/p99 dwell and a '#' bar proportional to the
// stage's share of total latency, so the dominant stage is visible at a
// glance. Stages render in the order given (the pipeline order), shares
// need not sum to exactly 100.
type Waterfall struct {
	Title string
	Rows  []StageRow
	// BarWidth is the width of a 100% bar (default 40 columns).
	BarWidth int
}

// Render writes the waterfall.
func (wf *Waterfall) Render(w io.Writer) error {
	width := wf.BarWidth
	if width <= 0 {
		width = 40
	}
	if wf.Title != "" {
		if _, err := fmt.Fprintf(w, "== %s ==\n", wf.Title); err != nil {
			return err
		}
	}
	label, mean, p50, p95, p99 := len("stage"), len("mean_us"), len("p50"), len("p95"), len("p99")
	cells := make([][5]string, len(wf.Rows))
	for i, r := range wf.Rows {
		cells[i] = [5]string{r.Stage, F(r.MeanUS), F(r.P50US), F(r.P95US), F(r.P99US)}
		for j, w := range []*int{&label, &mean, &p50, &p95, &p99} {
			if len(cells[i][j]) > *w {
				*w = len(cells[i][j])
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %*s  %*s  %*s  %*s  %6s\n",
		label, "stage", mean, "mean_us", p50, "p50", p95, "p95", p99, "p99", "share"); err != nil {
		return err
	}
	for i, r := range wf.Rows {
		bar := int(r.SharePct/100*float64(width) + 0.5)
		if bar < 1 && r.SharePct > 0 {
			bar = 1 // a nonzero stage always shows
		}
		if bar > width {
			bar = width
		}
		c := cells[i]
		hashes := ""
		if bar > 0 {
			hashes = " " + strings.Repeat("#", bar)
		}
		if _, err := fmt.Fprintf(w, "%-*s  %*s  %*s  %*s  %*s  %5.1f%%%s\n",
			label, c[0], mean, c[1], p50, c[2], p95, c[3], p99, c[4],
			r.SharePct, hashes); err != nil {
			return err
		}
	}
	return nil
}

// String renders the waterfall to a string.
func (wf *Waterfall) String() string {
	var b strings.Builder
	_ = wf.Render(&b)
	return b.String()
}
