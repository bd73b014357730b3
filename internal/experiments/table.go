// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds the scenario from the library's
// public pieces, runs it, and returns a Table whose rows correspond to
// the points the paper plots. cmd/tcplp-bench prints them; the root-level
// bench_test.go runs them all from one table; each table's notes quote
// the paper's numbers next to the measured ones.
package experiments

import (
	"fmt"
	"strings"

	"tcplp/internal/scenario"
	"tcplp/internal/stats"
)

// Table is one experiment's result set.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-text note printed under the table.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func di(v int) string      { return fmt.Sprintf("%d", v) }
func du(v uint64) string   { return fmt.Sprintf("%d", v) }

// cell renders one table cell from per-seed observations: a single
// observation stays the plain point estimate, several render as
// "mean ± σ" using the given point formatter — so multi-seed tables
// carry their error bars instead of silently showing point estimates.
// With Opts.CI set, the spread is instead the Student-t 95% confidence
// half-width of the mean, which stays honest at 3-5 seeds.
func (o Opts) cell(xs []float64, f func(float64) string) string {
	mean, sd := stats.MeanStdDev(xs)
	if len(xs) < 2 {
		return f(mean)
	}
	if o.CI {
		return f(mean) + " ± " + f(stats.CI95(xs))
	}
	return f(mean) + " ± " + f(sd)
}

// flowSeries collects one per-seed metric of flow fi across a spec's
// runs, in seed order.
func flowSeries(sr *scenario.SpecResult, fi int, f func(scenario.FlowResult) float64) []float64 {
	out := make([]float64, len(sr.Runs))
	for i, run := range sr.Runs {
		out[i] = f(run.Flows[fi])
	}
	return out
}

// runSeries collects one per-seed run-level metric across a spec's
// runs, in seed order.
func runSeries(sr *scenario.SpecResult, f func(scenario.Result) float64) []float64 {
	out := make([]float64, len(sr.Runs))
	for i, run := range sr.Runs {
		out[i] = f(run)
	}
	return out
}

// goodputOf is the most common flow metric selector.
func goodputOf(f scenario.FlowResult) float64 { return f.GoodputKbps }
