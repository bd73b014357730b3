package experiments

import "tcplp/internal/scenario"

// citySweep scales the evaluation past the paper's 15-node office:
// random-geometric fields of hundreds to a thousand nodes, each carrying
// about one instrumented telemetry flow per hundred devices into the
// border-router gateway, swept over node count × congestion-control
// variant. Next to the application columns it reports the simulator
// events each run took — deterministic, like every other cell; the host's
// time per event is benchmark/'s metro_10k workload.
func citySweep(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "citysweep",
		Title:   "City-scale mesh: delivery and simulator events vs node count",
		Columns: []string{"Nodes", "Variant", "Flows", "Agg kb/s", "Jain", "kevents"},
	}
	for _, sr := range res {
		t.AddRow(di(sr.Spec.Topology.Nodes), sr.Runs[0].Flows[0].Variant, di(len(sr.Runs[0].Flows)),
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return r.AggregateKbps }), f1),
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return r.Jain }), f3),
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return float64(r.Events) / 1000 }), f0))
	}
	return t
}
