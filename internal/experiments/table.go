// Package experiments renders the paper's evaluation: one registry entry
// per table and figure. A simulating entry is data plus a renderer — its
// specs are the file examples/scenarios/paper/<id>.json, run through the
// same scenario pipeline as tcplp-bench -scenario, and the renderer turns
// the per-seed results into a Table whose rows are the points the paper
// plots. cmd/tcplp-bench prints them; the root-level bench_test.go runs
// them all from one table; each table's notes quote the paper's numbers
// next to the measured ones.
//
// Every measured cell, -scenario's Summary included, is a run metric
// (metrics.go) over a cell's seeds reduced by Opts.cell, and a renderer
// is a column list over pivot; only fig7a, fig10 and the static tables
// build a Table by hand. Columns stay in Go: a table block in a spec
// would be one more construct for Validate and the spec fuzzer.
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
	// A cell may hold a spec's flow label: escape its pipes.
	writeRow := func(cells []string) {
		b.WriteString("|")
		for _, c := range cells {
			b.WriteString(" " + strings.ReplaceAll(c, "|", `\|`) + " |")
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func f0(v float64) string   { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string  { return fmt.Sprintf("%.1f%%", v*100) }
func pct2(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
func di(v int) string       { return fmt.Sprintf("%d", v) }

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

// A column is one header of a pivot table and how a row renders under
// it, from the row's index and its group of cells.
type column struct {
	head string
	cell func(o Opts, i int, row []*scenario.SpecResult) string
}

// pivot renders a table with one row per group of cells and one column
// per entry of cols.
func pivot(o Opts, id, title string, rows [][]*scenario.SpecResult, cols []column, notes ...string) *Table {
	t := &Table{ID: id, Title: title, Notes: notes}
	for _, c := range cols {
		t.Columns = append(t.Columns, c.head)
	}
	for i, row := range rows {
		cells := make([]string, len(cols))
		for j, c := range cols {
			cells[j] = c.cell(o, i, row)
		}
		t.AddRow(cells...)
	}
	return t
}

// m is a column of metric over the row's j-th cell, one cell per row
// reduced across seeds.
func m(head string, j int, metric func(scenario.Result) float64, f func(float64) string) column {
	return column{head, func(o Opts, _ int, row []*scenario.SpecResult) string {
		return o.cell(series(row[j], metric), f)
	}}
}

// label is a column of text about the row's first cell.
func label(head string, f func(*scenario.SpecResult) string) column {
	return column{head, func(_ Opts, _ int, row []*scenario.SpecResult) string { return f(row[0]) }}
}

// fixed is a column of given text: row i shows vals[i mod len(vals)].
func fixed(head string, vals ...string) column {
	return column{head, func(_ Opts, i int, _ []*scenario.SpecResult) string { return vals[i%len(vals)] }}
}

// groups splits cells into rows of k consecutive cells.
func groups(cells []*scenario.SpecResult, k int) [][]*scenario.SpecResult {
	var rows [][]*scenario.SpecResult
	for i := 0; i+k <= len(cells); i += k {
		rows = append(rows, cells[i:i+k])
	}
	return rows
}

// zip pairs the two halves of cells: row i is the i-th cell of each.
func zip(cells []*scenario.SpecResult) [][]*scenario.SpecResult {
	a, b := cells[:len(cells)/2], cells[len(cells)/2:]
	rows := make([][]*scenario.SpecResult, len(a))
	for i := range a {
		rows[i] = []*scenario.SpecResult{a[i], b[i]}
	}
	return rows
}
