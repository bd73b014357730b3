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
	return pivot(o, "citysweep", "City-scale mesh: delivery and simulator events vs node count", groups(res, 1), []column{
		label("Nodes", func(sr *scenario.SpecResult) string { return di(sr.Spec.Topology.Nodes) }),
		label("Variant", variant),
		label("Flows", func(sr *scenario.SpecResult) string { return di(len(sr.Runs[0].Flows)) }),
		m("Agg kb/s", 0, aggKbps, f1), m("Jain", 0, jain, f3), m("kevents", 0, kevents, f0),
	})
}
