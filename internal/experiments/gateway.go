package experiments

import (
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
)

// The gateway capacity study extends the paper's evaluation past the
// border router: duty-cycled devices stream telemetry to a gateway
// tier that proxies them onto a fixed 8 kb/s WAN uplink (100 ms RTT,
// 1% loss). Sweeping the fleet size across that capacity shows where
// end-to-end delivery and per-source credit fairness collapse — the
// split-transport question the paper stops short of.

// gatewayCapacitySpec builds the devices × variants sweep; the checked
// in examples/scenarios/gateway_capacity.json mirrors it.
func gatewayCapacitySpec(devices []int, variants []string, warm, dur sim.Duration, seeds []int64) *scenario.Spec {
	return &scenario.Spec{
		Name:     "gateway-capacity",
		Topology: scenario.TopologySpec{Kind: scenario.TopoStar},
		AllNodes: &scenario.NodeSpec{
			Sleepy:        true,
			SleepInterval: scenario.Duration(8 * sim.Second),
		},
		Gateway: &scenario.GatewaySpec{
			MaxConns: 64,
			WAN: scenario.WANSpec{
				BandwidthKbps: 8,
				RTT:           scenario.Duration(100 * sim.Millisecond),
				Loss:          0.01,
				QueueCap:      32,
			},
		},
		Flows: []scenario.FlowSpec{{
			Label:     "dev",
			To:        scenario.Gateway(),
			PerDevice: true,
			Pattern:   scenario.PatternAnemometer,
			Interval:  scenario.Duration(500 * sim.Millisecond),
		}},
		Sweep: &scenario.Sweep{
			Devices:  devices,
			Variants: variants,
			SeedStep: 7,
		},
		Warmup:   scenario.Duration(warm),
		Duration: scenario.Duration(dur),
		Seeds:    seeds,
	}
}

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

// GatewayCapacity sweeps device count × congestion-control variant
// against the fixed WAN uplink and reports pooled end-to-end delivery
// plus Jain fairness over per-source cloud credits.
func GatewayCapacity(o Opts) *Table {
	scale := o.scale()
	devices := []int{2, 4, 8, 16}
	variants := []string{"newreno", "cubic"}
	t := &Table{
		ID:      "gateway_capacity",
		Title:   "Gateway tier: e2e delivery and credit fairness vs device count (8 kb/s WAN)",
		Columns: []string{"Devices", "NewReno e2e", "NewReno fairness", "Cubic e2e", "Cubic fairness"},
	}
	warm, dur := scale.dur(sim.Minute), scale.dur(10*sim.Minute)
	res := o.run([]*scenario.Spec{
		gatewayCapacitySpec(devices, variants, warm, dur, o.seeds(800)),
	})
	creditJain := func(r scenario.Result) float64 { return r.Gateway.CreditJain }
	for i, dev := range devices {
		cells := []string{di(dev)}
		for vi := range variants {
			sr := res[i*len(variants)+vi]
			cells = append(cells,
				o.cell(runSeries(sr, gwE2ERel), pct),
				o.cell(runSeries(sr, creditJain), f3))
		}
		t.AddRow(cells...)
	}
	t.Note("the uplink fits ~4 devices' telemetry; past it, e2e delivery collapses and queue-drop timing skews per-source credit shares")
	return t
}
