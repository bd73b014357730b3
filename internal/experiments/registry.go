package experiments

import (
	"fmt"

	"tcplp/internal/model"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// ModelComparison contrasts Eq. 1 (Mathis) with Eq. 2 (the paper's
// small-window model) across loss rates at LLN-typical RTTs, showing why
// the classical model wildly overpredicts LLN TCP (§8).
func ModelComparison() *Table {
	t := &Table{
		ID:      "model",
		Title:   "Eq. 1 vs Eq. 2 predicted goodput (MSS=440 B, w=4 segments)",
		Columns: []string{"Scenario", "Loss", "Eq.1 kb/s", "Eq.2 kb/s"},
	}
	mss := 440
	cases := []struct {
		name string
		rtt  sim.Duration
	}{
		{"one hop (RTT 120 ms)", 120 * sim.Millisecond},
		{"three hops (RTT 750 ms)", 750 * sim.Millisecond},
	}
	for _, c := range cases {
		for _, p := range []float64{0.001, 0.01, 0.03, 0.06, 0.1} {
			eq1 := model.MathisGoodput(mss, c.rtt, p) / 1000
			eq2 := model.TCPlpGoodput(mss, c.rtt, 4, p) / 1000
			t.AddRow(c.name, pct(p), f1(eq1), f1(eq2))
		}
	}
	t.Note("Eq.1 assumes cwnd is loss-limited; with a 4-segment window the 1/w term dominates, making goodput insensitive to small p (§8)")
	return t
}

// Opts configures an experiment run: the duration scale, the number of
// independent seeds per measurement point, the scenario worker pool, and
// the transport defaults. The zero value means full-scale, single-seed,
// all CPUs, NewReno, 4-segment window.
type Opts struct {
	// Scale shrinks measurement windows proportionally (0 means 1.0 —
	// the full published durations).
	Scale Scale
	// Seeds is the number of independent channel realizations per
	// measurement point (0 means 1); above 1, scenario-backed tables
	// render mean ± σ cells.
	Seeds int
	// Workers bounds the scenario runner's worker pool (0 = all CPUs).
	// Aggregates are bit-identical whatever the pool size.
	Workers int
	// CI renders multi-seed cells as mean ± Student-t 95% confidence
	// half-width instead of mean ± σ (tcplp-bench -ci).
	CI bool
	// Variant and WindowSegs replace the paper's NewReno / 4-segment
	// defaults in every experiment (tcplp-bench -variant / -window);
	// zero values keep them. Experiments that set a flow's variant or a
	// spec's window themselves still win.
	Variant    cc.Variant
	WindowSegs int
}

// scale returns the effective duration scale.
func (o Opts) scale() Scale {
	if o.Scale == 0 {
		return 1
	}
	return o.Scale
}

// seeds derives the seed list for a measurement point: the point's base
// seed first (so single-seed runs reproduce the pinned tables exactly),
// then widely spaced derived seeds.
func (o Opts) seeds(base int64) []int64 {
	n := o.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*99991
	}
	return out
}

// runner is the one place experiments build a scenario.Runner, so the
// transport defaults reach every experiment.
func (o Opts) runner(workers int) *scenario.Runner {
	return &scenario.Runner{Workers: workers, Variant: o.Variant, WindowSegs: o.WindowSegs}
}

// run fans specs out across the scenario runner's worker pool. The
// specs are built by the experiments themselves, so a validation error
// is a programming bug, not an input error — except a
// *scenario.WindowError, which Opts.WindowSegs causes; the panic value
// wraps the error so a caller can tell them apart.
func (o Opts) run(specs []*scenario.Spec) []*scenario.SpecResult {
	res, err := o.runner(o.Workers).RunAll(specs)
	if err != nil {
		panic(fmt.Errorf("experiments: invalid spec: %w", err))
	}
	return res
}

// Runner produces one or more tables for an experiment id.
type Runner func(Opts) []*Table

// Experiment couples an id with its runner.
type Experiment struct {
	ID   string
	Desc string
	Run  Runner
	// SweepsVariants marks runners that compare congestion-control
	// variants internally and therefore ignore Opts.Variant.
	SweepsVariants bool
	// MultiSeed marks runners that execute through the scenario runner
	// and therefore honor Opts.Seeds/Workers (mean ± σ tables).
	MultiSeed bool
}

func one(f func(Opts) *Table) Runner {
	return func(o Opts) []*Table { return []*Table{f(o)} }
}

func static(f func() *Table) Runner {
	return func(Opts) []*Table { return []*Table{f()} }
}

// Registry lists every reproducible table and figure.
var Registry = []Experiment{
	{ID: "table1", Desc: "Feature comparison (Table 1)", Run: static(Table1)},
	{ID: "table2", Desc: "Platform comparison (Table 2)", Run: static(Table2)},
	{ID: "table34", Desc: "Memory footprint (Tables 3-4)", Run: static(Table34)},
	{ID: "table5", Desc: "Link comparison (Table 5)", Run: static(Table5)},
	{ID: "table6", Desc: "Header overhead (Table 6)", Run: static(Table6)},
	{ID: "fig4", Desc: "Goodput vs MSS (Fig. 4)", Run: one(Fig4), MultiSeed: true},
	{ID: "fig5", Desc: "Goodput/RTT vs window (Fig. 5)", Run: one(Fig5), MultiSeed: true},
	{ID: "table7", Desc: "Baseline stack comparison (Table 7)", Run: one(Table7), MultiSeed: true},
	{ID: "fig6", Desc: "Link-retry delay sweep incl. Fig. 7b (Fig. 6)", Run: Fig6, MultiSeed: true},
	{ID: "fig7a", Desc: "cwnd behaviour summary (Fig. 7a)", Run: one(CwndTrace)},
	{ID: "hopsweep", Desc: "Goodput vs hops (§7.2)", Run: one(HopSweep), MultiSeed: true},
	{ID: "model", Desc: "Eq.1 vs Eq.2 (§8)", Run: static(ModelComparison)},
	{ID: "table9", Desc: "Two-flow fairness (Table 9 / Appendix A)", Run: one(Table9), MultiSeed: true},
	{ID: "fig8", Desc: "Batching vs power (Fig. 8)", Run: one(Fig8), MultiSeed: true},
	{ID: "fig9", Desc: "Injected loss sweep (Fig. 9)", Run: Fig9, MultiSeed: true},
	{ID: "rto_inflation", Desc: "CoCoA RTO inflation vs injected loss (Fig. 9 mechanism)", Run: one(RTOInflation), MultiSeed: true},
	{ID: "fig10", Desc: "Diurnal day run (Fig. 10)", Run: one(Fig10), MultiSeed: true},
	{ID: "table8", Desc: "Full-day summary (Table 8)", Run: one(Table8), MultiSeed: true},
	{ID: "fig12", Desc: "Fixed sleep interval sweep (Fig. 12 / Appendix C)", Run: one(Fig12), MultiSeed: true},
	{ID: "fig13", Desc: "RTT distribution at 2 s sleep (Fig. 13)", Run: one(Fig13), MultiSeed: true},
	{ID: "fig14", Desc: "Adaptive sleep interval (Fig. 14 / §C.2)", Run: one(Fig14), MultiSeed: true},
	{ID: "ccvariants", Desc: "Congestion-control head-to-head, PER + link-retry-delay axes",
		Run: one(CCVariants), SweepsVariants: true, MultiSeed: true},
	{ID: "pacing", Desc: "Paced BBR vs ACK-clocked NewReno (hidden-terminal + duty-cycled)",
		Run: one(Pacing), SweepsVariants: true, MultiSeed: true},
	{ID: "gateway_capacity", Desc: "Gateway tier: WAN capacity sweep, e2e delivery + credit fairness",
		Run: one(GatewayCapacity), SweepsVariants: true, MultiSeed: true},
	{ID: "citysweep", Desc: "City-scale mesh: node-count sweep, delivery + simulator throughput",
		Run: one(CitySweep), SweepsVariants: true, MultiSeed: true},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
