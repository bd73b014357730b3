package experiments

import "tcplp/internal/scenario"

// The gateway capacity study extends the paper's evaluation past the
// border router: duty-cycled devices stream telemetry to a gateway
// tier that proxies them onto a fixed 8 kb/s WAN uplink (100 ms RTT,
// 1% loss). Sweeping the fleet size across that capacity shows where
// end-to-end delivery and per-source credit fairness collapse — the
// split-transport question the paper stops short of.

// gatewayCapacity: the devices × variants sweep (NewReno, then CUBIC,
// per device count) against the fixed WAN uplink — pooled end-to-end
// delivery plus Jain fairness over per-source cloud credits.
func gatewayCapacity(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "gateway_capacity", "Gateway tier: e2e delivery and credit fairness vs device count (8 kb/s WAN)", groups(res, 2), []column{
		label("Devices", func(sr *scenario.SpecResult) string { return di(sr.Spec.Topology.Nodes - 1) }),
		m("NewReno e2e", 0, gwE2ERel, pct), m("NewReno fairness", 0, creditJain, f3),
		m("Cubic e2e", 1, gwE2ERel, pct), m("Cubic fairness", 1, creditJain, f3),
	}, "the uplink fits ~4 devices' telemetry; past it, e2e delivery collapses and queue-drop timing skews per-source credit shares")
}
