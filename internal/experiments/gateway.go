package experiments

import "tcplp/internal/scenario"

// The gateway capacity study extends the paper's evaluation past the
// border router: duty-cycled devices stream telemetry to a gateway
// tier that proxies them onto a fixed 8 kb/s WAN uplink (100 ms RTT,
// 1% loss). Sweeping the fleet size across that capacity shows where
// end-to-end delivery and per-source credit fairness collapse — the
// split-transport question the paper stops short of.

// gwE2ERel pools one run's end-to-end reliability the way anemRel pools
// the mesh hop: the shared delivery-ratio formula over reading counts
// summed across devices, with readings still inside the gateway-to-
// cloud pipeline (delivered to the gateway, neither credited nor lost)
// counted as backlog.
func gwE2ERel(run scenario.Result) float64 {
	var gen, e2e, backlog uint64
	for _, fl := range run.Flows {
		gen += fl.Generated
		e2e += fl.E2EDelivered
		backlog += fl.Backlog
		if fl.Delivered > fl.E2EDelivered+fl.WANLost {
			backlog += fl.Delivered - fl.E2EDelivered - fl.WANLost
		}
	}
	return scenario.DeliveryRatio(gen, e2e, backlog)
}

// gatewayCapacity: the devices × variants sweep (NewReno, then CUBIC,
// per device count) against the fixed WAN uplink — pooled end-to-end
// delivery plus Jain fairness over per-source cloud credits.
func gatewayCapacity(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "gateway_capacity",
		Title:   "Gateway tier: e2e delivery and credit fairness vs device count (8 kb/s WAN)",
		Columns: []string{"Devices", "NewReno e2e", "NewReno fairness", "Cubic e2e", "Cubic fairness"},
	}
	creditJain := func(r scenario.Result) float64 { return r.Gateway.CreditJain }
	for i := 0; i+1 < len(res); i += 2 {
		cells := []string{di(res[i].Spec.Topology.Nodes - 1)}
		for _, sr := range res[i : i+2] {
			cells = append(cells,
				o.cell(runSeries(sr, gwE2ERel), pct),
				o.cell(runSeries(sr, creditJain), f3))
		}
		t.AddRow(cells...)
	}
	t.Note("the uplink fits ~4 devices' telemetry; past it, e2e delivery collapses and queue-drop timing skews per-source credit shares")
	return t
}
