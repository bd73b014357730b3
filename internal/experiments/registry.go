package experiments

import (
	"tcplp/examples/scenarios/paper"
	"tcplp/internal/scenario"
)

// Opts is how an experiment's tables are rendered. The zero value
// renders multi-seed cells as mean ± σ.
type Opts struct {
	// CI renders multi-seed cells as mean ± Student-t 95% confidence
	// half-width instead of mean ± σ (tcplp-bench -ci).
	CI bool
}

// Experiment is one table or figure of the evaluation: a static table,
// or a spec file examples/scenarios/paper/<ID>.json with the renderer
// that turns its results into the paper's tables.
type Experiment struct {
	ID     string
	Desc   string
	static func() *Table
	// render receives one result per loaded cell, in Load's order.
	render func(o Opts, res []*scenario.SpecResult) []*Table
}

// File returns the experiment's spec file; nil for a static table.
func (e Experiment) File() ([]byte, error) {
	if e.static != nil {
		return nil, nil
	}
	return paper.Files.ReadFile(e.ID + ".json")
}

// Load is the one step from a spec file — an experiment's File or a
// tcplp-bench -scenario file — to the cells that run: it parses and
// validates the file, then applies rw (scenario.Rewrite.Apply). unused
// names each field of rw that changed no cell. A nil file, a static
// table's, loads no cells.
func Load(file []byte, rw scenario.Rewrite) (cells []*scenario.Spec, unused []string, err error) {
	if file == nil {
		return nil, nil, nil
	}
	specs, err := scenario.ParseSpecs(file)
	if err != nil {
		return nil, nil, err
	}
	return rw.Apply(specs)
}

// Tables renders the results of the experiment's loaded cells, one per
// cell in Load's order, as its tables; a static table takes none.
func (e Experiment) Tables(o Opts, res []*scenario.SpecResult) []*Table {
	if e.static != nil {
		return []*Table{e.static()}
	}
	return e.render(o, res)
}

// one wraps a single-table renderer.
func one(f func(Opts, []*scenario.SpecResult) *Table) func(Opts, []*scenario.SpecResult) []*Table {
	return func(o Opts, res []*scenario.SpecResult) []*Table { return []*Table{f(o, res)} }
}

// Registry lists every reproducible table and figure.
var Registry = []Experiment{
	{ID: "table1", Desc: "Feature comparison (Table 1)", static: Table1},
	{ID: "table2", Desc: "Platform comparison (Table 2)", static: Table2},
	{ID: "table34", Desc: "Memory footprint (Tables 3-4)", static: Table34},
	{ID: "table5", Desc: "Link comparison (Table 5)", static: Table5},
	{ID: "table6", Desc: "Header overhead (Table 6)", static: Table6},
	{ID: "fig4", Desc: "Goodput vs MSS (Fig. 4)", render: one(fig4)},
	{ID: "fig5", Desc: "Goodput/RTT vs window (Fig. 5)", render: one(fig5)},
	{ID: "table7", Desc: "Baseline stack comparison (Table 7)", render: one(table7)},
	{ID: "fig6", Desc: "Link-retry delay sweep incl. Fig. 7b (Fig. 6)", render: fig6},
	{ID: "fig7a", Desc: "cwnd behaviour summary (Fig. 7a)", render: one(fig7a)},
	{ID: "hopsweep", Desc: "Goodput vs hops (§7.2)", render: one(hopSweep)},
	{ID: "model", Desc: "Eq.1 vs Eq.2 (§8)", static: ModelComparison},
	{ID: "table9", Desc: "Two-flow fairness (Table 9 / Appendix A)", render: one(table9)},
	{ID: "fig8", Desc: "Batching vs power (Fig. 8)", render: one(fig8)},
	{ID: "fig9", Desc: "Injected loss sweep (Fig. 9)", render: fig9},
	{ID: "rto_inflation", Desc: "CoCoA RTO inflation vs injected loss (Fig. 9 mechanism)", render: one(rtoInflation)},
	{ID: "fig10", Desc: "Diurnal day run (Fig. 10)", render: one(fig10)},
	{ID: "table8", Desc: "Full-day summary (Table 8)", render: one(table8)},
	{ID: "fig12", Desc: "Fixed sleep interval sweep (Fig. 12 / Appendix C)", render: one(fig12)},
	{ID: "fig13", Desc: "RTT distribution at 2 s sleep (Fig. 13)", render: one(fig13)},
	{ID: "fig14", Desc: "Adaptive sleep interval (Fig. 14 / §C.2)", render: one(fig14)},
	{ID: "ccvariants", Desc: "Congestion-control head-to-head, PER + link-retry-delay axes", render: one(ccVariants)},
	{ID: "pacing", Desc: "Paced BBR vs ACK-clocked NewReno (hidden-terminal + duty-cycled)", render: one(pacing)},
	{ID: "gateway_capacity", Desc: "Gateway tier: WAN capacity sweep, e2e delivery + credit fairness", render: one(gatewayCapacity)},
	{ID: "citysweep", Desc: "City-scale mesh: node-count sweep, delivery + simulator events", render: one(citySweep)},
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
