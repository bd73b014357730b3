package experiments

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tcplp/examples/scenarios/paper"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// cell parses a numeric table cell ("67.3", "4.2%", "12", or the mean
// of a multi-seed "67.3 ± 1.2" cell).
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	s := tab.Rows[row][col]
	if mean, _, ok := strings.Cut(s, " ± "); ok {
		s = mean
	}
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimSuffix(s, " ms")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q: %v", tab.ID, row, col, tab.Rows[row][col], err)
	}
	return v
}

// config is how a test runs an experiment: the rewrite its spec file
// gets, the runner (nil: one on all CPUs) and how its tables render.
type config struct {
	rw     scenario.Rewrite
	runner *scenario.Runner
	o      Opts
}

// scaled runs an experiment's spec file at the given -scale.
func scaled(scale float64) config { return config{rw: scenario.Rewrite{Scale: scale}} }

var quick = scaled(0.15)

// load loads the registry experiment id's spec file under rw.
func load(t *testing.T, id string, rw scenario.Rewrite) (Experiment, []*scenario.Spec) {
	t.Helper()
	e, ok := Find(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	file, err := e.File()
	if err != nil {
		t.Fatal(err)
	}
	cells, _, err := Load(file, rw)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return e, cells
}

// run runs the registry experiment id and returns its tables.
func run(t *testing.T, id string, c config) []*Table {
	t.Helper()
	e, cells := load(t, id, c.rw)
	runner := c.runner
	if runner == nil {
		runner = &scenario.Runner{}
	}
	res, err := runner.RunAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	return e.Tables(c.o, res)
}

// run1 is run for a one-table experiment.
func run1(t *testing.T, id string, c config) *Table {
	t.Helper()
	return run(t, id, c)[0]
}

func TestStaticTables(t *testing.T) {
	for _, f := range []func() *Table{Table1, Table2, Table34, Table5, Table6, ModelComparison} {
		tab := f()
		if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("%s: empty", tab.ID)
		}
		if out := tab.String(); !strings.Contains(out, tab.Title) {
			t.Fatalf("%s: render broken", tab.ID)
		}
		if md := tab.Markdown(); !strings.Contains(md, "|") {
			t.Fatalf("%s: markdown broken", tab.ID)
		}
	}
}

func TestTable6HeaderBudget(t *testing.T) {
	tab := Table6()
	first := cell(t, tab, 4, 1)
	other := cell(t, tab, 4, 2)
	// Paper Table 6: 50-107 B first frame, 28-35 B subsequent.
	if first < 50 || first > 107 {
		t.Fatalf("first-frame overhead = %v", first)
	}
	if other < 26 || other > 35 {
		t.Fatalf("other-frame overhead = %v", other)
	}
}

func TestFig4Shape(t *testing.T) {
	tab := run1(t, "fig4", quick)
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	up2 := cell(t, tab, 0, 2) // 2 frames
	up5 := cell(t, tab, 3, 2) // 5 frames
	up8 := cell(t, tab, 6, 2) // 8 frames
	if !(up5 > up2) {
		t.Fatalf("MSS gain missing: 2f=%.1f 5f=%.1f", up2, up5)
	}
	// Diminishing returns: 8 frames gains little over 5.
	if up8 < up5*0.9 {
		t.Fatalf("8-frame goodput regressed: 5f=%.1f 8f=%.1f", up5, up8)
	}
	if gain := up8 - up5; gain > up5-up2 {
		t.Fatalf("no diminishing returns: Δ(5→8)=%.1f Δ(2→5)=%.1f", gain, up5-up2)
	}
}

func TestFig5Shape(t *testing.T) {
	tab := run1(t, "fig5", quick)
	g1 := cell(t, tab, 0, 2)
	g4 := cell(t, tab, 3, 2)
	g6 := cell(t, tab, 5, 2)
	if !(g4 > g1*1.5) {
		t.Fatalf("window growth missing: w1=%.1f w4=%.1f", g1, g4)
	}
	// Past the BDP the curve flattens.
	if g6 < g4*0.85 {
		t.Fatalf("goodput collapsed past BDP: w4=%.1f w6=%.1f", g4, g6)
	}
}

func TestTable7Shape(t *testing.T) {
	tab := run1(t, "table7", quick)
	// Last row is TCPlp; first is uIP.
	uip1 := cell(t, tab, 0, 3)
	tcplp1 := cell(t, tab, len(tab.Rows)-1, 3)
	if tcplp1 < 4*uip1 {
		t.Fatalf("TCPlp %.1f kb/s not ≥4x uIP %.1f kb/s (paper: 5-40x)", tcplp1, uip1)
	}
}

func TestFig6Shape(t *testing.T) {
	tabs := run(t, "fig6", quick)
	if len(tabs) != 5 {
		t.Fatalf("tables = %d", len(tabs))
	}
	t6b, t6c := tabs[1], tabs[2]
	lossD0 := cell(t, t6b, 0, 1)
	lossD40 := cell(t, t6b, 5, 1)
	if lossD0 <= lossD40 {
		t.Fatalf("retry delay did not cut loss: d0=%.1f%% d40=%.1f%%", lossD0, lossD40)
	}
	// RTT grows with d.
	rttD0 := cell(t, t6c, 0, 2)
	rttD100 := cell(t, t6c, len(t6c.Rows)-1, 2)
	if rttD100 < rttD0 {
		t.Fatalf("RTT did not grow with d: %.0f → %.0f ms", rttD0, rttD100)
	}
	// Eq. 2 prediction within a factor ≈2 of measurement at d=40.
	meas := cell(t, t6b, 5, 2)
	pred := cell(t, t6b, 5, 3)
	if pred < meas/2 || pred > meas*2 {
		t.Fatalf("Eq.2 prediction off: measured %.1f predicted %.1f", meas, pred)
	}
}

func TestCwndTraceShape(t *testing.T) {
	tab := run1(t, "fig7a", quick)
	if cell(t, tab, 0, 1) == 0 {
		t.Fatal("no cwnd events")
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("summary rows = %d", len(tab.Rows))
	}
}

func TestHopSweepShape(t *testing.T) {
	tab := run1(t, "hopsweep", quick)
	g1 := cell(t, tab, 0, 1)
	g2 := cell(t, tab, 1, 1)
	g3 := cell(t, tab, 2, 1)
	if !(g1 > g2 && g2 > g3) {
		t.Fatalf("hop degradation missing: %v %v %v", g1, g2, g3)
	}
	ratio3 := g3 / g1
	if ratio3 < 0.2 || ratio3 > 0.5 {
		t.Fatalf("3-hop ratio %.2f, want ≈1/3", ratio3)
	}
}

func TestTable9Shape(t *testing.T) {
	tab := run1(t, "table9", scaled(0.08))
	// w=4 rows: fair (Jain close to 1).
	if j := cell(t, tab, 0, 3); j < 0.8 {
		t.Fatalf("one-hop w=4 unfair: Jain %.3f", j)
	}
	if j := cell(t, tab, 1, 3); j < 0.7 {
		t.Fatalf("three-hop w=4 unfair: Jain %.3f", j)
	}
	// RED+ECN should not be less fair than plain w=7.
	plain := cell(t, tab, 2, 3)
	red := cell(t, tab, 3, 3)
	if red < plain-0.25 {
		t.Fatalf("RED/ECN made fairness worse: %.3f → %.3f", plain, red)
	}
	// The mixed paced-BBR-vs-NewReno row reports a sane Jain index and
	// both flows alive.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	if j := cell(t, tab, 4, 3); j < 0.5 || j > 1.0001 {
		t.Fatalf("mixed-variant Jain %.3f outside [0.5, 1]", j)
	}
	if a, b := cell(t, tab, 4, 1), cell(t, tab, 4, 2); a <= 0 || b <= 0 {
		t.Fatalf("mixed row flow starved: A=%.1f B=%.1f", a, b)
	}
}

func TestFig8Shape(t *testing.T) {
	tab := run1(t, "fig8", scaled(0.1))
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// All protocols near-100% reliable in favorable conditions.
	for i := range tab.Rows {
		if rel := cell(t, tab, i, 2); rel < 95 {
			t.Fatalf("row %d reliability %.1f%%", i, rel)
		}
	}
	// Batching reduces radio duty cycle for every protocol.
	for p := 0; p < 3; p++ {
		nb := cell(t, tab, 2*p, 3)
		b := cell(t, tab, 2*p+1, 3)
		if b >= nb {
			t.Fatalf("%s: batching did not reduce radio DC (%.2f → %.2f)", tab.Rows[2*p][0], nb, b)
		}
	}
}

func TestFig12Shape(t *testing.T) {
	tab := run1(t, "fig12", scaled(0.2))
	gFast := cell(t, tab, 0, 1) // 20 ms
	gSlow := cell(t, tab, len(tab.Rows)-1, 1)
	if gFast < 5*gSlow {
		t.Fatalf("sleep interval did not throttle uplink: 20ms=%.1f slowest=%.1f", gFast, gSlow)
	}
	// Self-clocking: uplink RTT ≈ the sleep interval at 2 s.
	rtt2s := cell(t, tab, len(tab.Rows)-1, 2)
	if rtt2s < 1000 {
		t.Fatalf("2s-sleep uplink RTT = %.0f ms, want ≈2000", rtt2s)
	}
}

func TestFig14Shape(t *testing.T) {
	tab := run1(t, "fig14", scaled(0.3))
	up := cell(t, tab, 0, 1)
	idle := cell(t, tab, 0, 3)
	if up < 30 {
		t.Fatalf("adaptive uplink = %.1f kb/s, want near always-on rates", up)
	}
	if idle > 2 {
		t.Fatalf("idle duty cycle = %.2f%%, want ≈0.1%%", idle)
	}
}

func TestCCVariantsShape(t *testing.T) {
	tab := run1(t, "ccvariants", quick)
	// (4 loss rates + 4 retry delays) × variants.
	nv := len(cc.Variants())
	if len(tab.Rows) != 8*nv {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 8*nv)
	}
	variants := map[string]bool{}
	axes := map[string]bool{}
	for i, row := range tab.Rows {
		variants[row[1]] = true
		axes[row[0]] = true
		if g := cell(t, tab, i, 2); g <= 0 {
			t.Fatalf("row %d (%s @ %s): goodput %.1f", i, row[1], row[0], g)
		}
	}
	if len(variants) != nv {
		t.Fatalf("variants covered: %v", variants)
	}
	// Both axes present: 4 PER points + 4 link-retry-delay points.
	if len(axes) != 8 {
		t.Fatalf("axis points covered: %v", axes)
	}
	// Loss hurts: every variant's goodput at 6%% frame loss is below its
	// clean-channel goodput.
	for v := 0; v < nv; v++ {
		clean := cell(t, tab, v, 2)
		lossy := cell(t, tab, 3*nv+v, 2)
		if lossy >= clean {
			t.Fatalf("%s: goodput did not drop under loss (%.1f → %.1f)",
				tab.Rows[v][1], clean, lossy)
		}
	}
	// The d-axis rows follow the PER rows: first d row is labelled d=0
	// (hidden-terminal conditions).
	if tab.Rows[4*nv][0] != "d=0ms" {
		t.Fatalf("first retry-delay row labelled %q", tab.Rows[4*nv][0])
	}
}

func TestPacingShape(t *testing.T) {
	tab := run1(t, "pacing", quick)
	// 2 scenarios × {newreno, bbr}.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if g := cell(t, tab, i, 2); g <= 0 {
			t.Fatalf("row %d (%s / %s): goodput %.1f", i, row[0], row[1], g)
		}
	}
	if tab.Rows[0][1] != "newreno" || tab.Rows[1][1] != "bbr" {
		t.Fatalf("variant columns: %v / %v", tab.Rows[0][1], tab.Rows[1][1])
	}
	// Both scenarios appear.
	if tab.Rows[0][0] == tab.Rows[2][0] {
		t.Fatalf("scenarios not distinct: %v", tab.Rows[0][0])
	}
}

// TestGoldenEquivalence pins the scenario-runner port of the throughput
// experiments against the bespoke implementations they replaced: the
// golden files under testdata were rendered by the pre-port measureFlow
// paths at this exact scale and seeding, and the ported spec-driven
// tables must reproduce them byte for byte.
func TestGoldenEquivalence(t *testing.T) {
	check := func(name string, tabs ...*Table) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.String())
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: ported tables diverge from the bespoke implementation\n--- got ---\n%s--- want ---\n%s",
				name, got, want)
		}
	}
	check("equiv_fig4.txt", run1(t, "fig4", quick))
	check("equiv_fig5.txt", run1(t, "fig5", quick))
	check("equiv_fig6.txt", run(t, "fig6", quick)...)
	check("equiv_hopsweep.txt", run1(t, "hopsweep", quick))
	check("equiv_table7.txt", run1(t, "table7", quick))
	// Rendered by the hand-written renderers before the column-list
	// pivot replaced them; the last pins the multi-seed -ci cells.
	for _, id := range []string{"fig7a", "table9", "rto_inflation", "ccvariants", "pacing", "gateway_capacity", "citysweep"} {
		check("equiv_"+id+".txt", run(t, id, scaled(0.05))...)
	}
	ci := scaled(0.05)
	ci.rw.Seeds, ci.o.CI = 2, true
	check("equiv_table9_ci.txt", run1(t, "table9", ci))
}

// TestGoldenEquivalenceApps pins the protocol-driver port of the §9
// application study and the Appendix C duty-cycled study: the golden
// files were rendered by the bespoke anemometer/CoAP harness and the
// hand-rolled duty-cycled loop before their deletion, and the
// spec-driven ports must reproduce them byte for byte.
func TestGoldenEquivalenceApps(t *testing.T) {
	check := func(name string, tabs ...*Table) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tab := range tabs {
			b.WriteString(tab.String())
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: ported tables diverge from the bespoke implementation\n--- got ---\n%s--- want ---\n%s",
				name, got, want)
		}
	}
	check("equiv_fig8.txt", run1(t, "fig8", scaled(0.1)))
	check("equiv_fig9.txt", run(t, "fig9", scaled(0.05))...)
	check("equiv_fig10.txt", run1(t, "fig10", scaled(0.1)))
	check("equiv_table8.txt", run1(t, "table8", scaled(0.02)))
	check("equiv_fig12.txt", run1(t, "fig12", scaled(0.2)))
	check("equiv_fig13.txt", run1(t, "fig13", scaled(0.2)))
	check("equiv_fig14.txt", run1(t, "fig14", scaled(0.3)))
}

// TestFig6WorkersBitIdentical is the parallelization contract at the
// experiment level: the same fig6 sweep through a serial and a wide
// worker pool must render byte-identical tables.
func TestFig6WorkersBitIdentical(t *testing.T) {
	c := scaled(0.05)
	c.runner = &scenario.Runner{Workers: 1}
	serial := run(t, "fig6", c)
	c.runner = &scenario.Runner{Workers: 4}
	parallel := run(t, "fig6", c)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel fig6 tables differ:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestMultiSeedErrorBars pins the ± σ rendering: with Seeds > 1 every
// measured cell carries an error bar and the mean still parses.
func TestMultiSeedErrorBars(t *testing.T) {
	c := scaled(0.05)
	c.rw.Seeds, c.runner = 3, &scenario.Runner{Workers: 4}
	tab := run1(t, "fig5", c)
	pm := regexp.MustCompile(`^\d+(\.\d+)? ± \d+(\.\d+)?$`)
	for i, row := range tab.Rows {
		if !pm.MatchString(row[2]) {
			t.Fatalf("row %d goodput cell %q lacks the mean ± σ form", i, row[2])
		}
		if g := cell(t, tab, i, 2); g <= 0 {
			t.Fatalf("row %d mean goodput %.1f", i, g)
		}
	}
	// Single-seed runs keep plain point estimates.
	tab = run1(t, "fig5", scaled(0.05))
	if strings.Contains(tab.Rows[0][2], "±") {
		t.Fatalf("single-seed cell %q carries an error bar", tab.Rows[0][2])
	}
}

// TestCICells pins the -ci rendering: the same runs render a wider
// spread than ± σ (the Student-t interval at 3 seeds is 2.48·s/√3 ≈
// 1.75σ) around the identical mean.
func TestCICells(t *testing.T) {
	c := scaled(0.05)
	c.rw.Seeds, c.runner = 3, &scenario.Runner{Workers: 4}
	sigma := run1(t, "fig5", c)
	c.o.CI = true
	ci := run1(t, "fig5", c)
	widened := false
	for i := range sigma.Rows {
		ms, ss, okS := strings.Cut(sigma.Rows[i][2], " ± ")
		mc, sc, okC := strings.Cut(ci.Rows[i][2], " ± ")
		if !okS || !okC {
			t.Fatalf("row %d cells lack error bars: %q / %q", i, sigma.Rows[i][2], ci.Rows[i][2])
		}
		if ms != mc {
			t.Fatalf("row %d: -ci changed the mean (%s vs %s)", i, ms, mc)
		}
		sv, _ := strconv.ParseFloat(ss, 64)
		cv, _ := strconv.ParseFloat(sc, 64)
		if cv > sv {
			widened = true
		}
		// t(2)/√3 ≈ 2.48: CI may round equal at tiny spreads but must
		// never be smaller than σ by more than rounding.
		if cv < sv-0.11 {
			t.Fatalf("row %d: CI %v narrower than σ %v", i, cv, sv)
		}
	}
	if !widened {
		t.Fatal("no row showed the Student-t widening over σ")
	}
}

// TestRegistryComplete: every paper artifact has an id, and the
// simulating ids and the spec files under examples/scenarios/paper are
// the same set — no experiment without its file, no file no experiment
// reads.
func TestRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "table34", "table5", "table6",
		"fig4", "fig5", "table7", "fig6", "fig7a", "hopsweep", "model",
		"table9", "fig8", "fig9", "fig10", "table8", "fig12", "fig13", "fig14",
		"ccvariants", "pacing"}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find accepted an unknown id")
	}
	files, err := fs.Glob(paper.Files, "*.json")
	if err != nil {
		t.Fatal(err)
	}
	var simulating []string
	for _, e := range Registry {
		_, cells := load(t, e.ID, scenario.Rewrite{})
		if (e.static == nil) != (len(cells) > 0) {
			t.Fatalf("%s: static %v, but %d cells", e.ID, e.static != nil, len(cells))
		}
		if len(cells) > 0 {
			simulating = append(simulating, e.ID+".json")
		}
	}
	slices.Sort(simulating)
	if !reflect.DeepEqual(files, simulating) {
		t.Fatalf("spec files %v, simulating experiments %v", files, simulating)
	}
}

// TestScaleFloor: -scale never shrinks a warmup or window below 5 s, nor
// a dc_sample run below one sample period — fig10 stays an hour long.
func TestScaleFloor(t *testing.T) {
	for _, id := range []string{"fig4", "fig10"} {
		_, cells := load(t, id, scenario.Rewrite{Scale: 0.0001})
		for _, c := range cells {
			floor := max(scenario.Duration(5*sim.Second), c.DCSample)
			if c.Duration != floor || (c.Warmup != 0 && c.Warmup != floor) {
				t.Fatalf("%s: warmup %v, window %v at scale 0.0001; want the %v floor", c.Name, c.Warmup, c.Duration, floor)
			}
		}
	}
}

// TestSummary: a -scenario cell renders as one more table — a row per
// flow, the run-level numbers as notes — whose markdown escapes the
// pipes a spec's flow label may hold.
func TestSummary(t *testing.T) {
	specs, err := scenario.ParseSpecs([]byte(`{"name":"mixed","topology":{"kind":"twinleaf","path_hops":3},
		"flows":[{"label":"a|b","from":3,"to":0,"variant":"bbr"},
		         {"label":"nr","from":4,"to":0,"variant":"newreno"}],
		"warmup":"1s","duration":"4s","seeds":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&scenario.Runner{}).RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	tab := Summary(Opts{}, res[0])
	if len(tab.Rows) != 2 || tab.Rows[0][0] != "a|b" || tab.Rows[0][2] != "bbr" {
		t.Fatalf("summary rows: %q", tab.Rows)
	}
	if s := tab.String(); !strings.Contains(s, "2 flow(s) x 2 seed(s)") || !strings.Contains(s, "note: jain ") {
		t.Fatalf("summary missing fields:\n%s", s)
	}
	if !strings.Contains(tab.Rows[0][3], " ± ") {
		t.Fatalf("two-seed goodput cell %q lacks its error bar", tab.Rows[0][3])
	}
	md := tab.Markdown()
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(line, "| a") {
			if !strings.HasPrefix(line, `| a\|b | tcp | bbr |`) || strings.Count(line, " | ") != len(tab.Columns)-1 {
				t.Fatalf("markdown row %q: the label's pipe splits it", line)
			}
			return
		}
	}
	t.Fatalf("no a|b row in the markdown:\n%s", md)
}
