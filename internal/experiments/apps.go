package experiments

import "tcplp/internal/scenario"

// The §9 application study — anemometer telemetry over TCPlp, CoAP,
// CoCoA, and unreliable transports — is office-topology specs with sleepy
// sensor nodes and one anemometer flow per sensor; a protocols sweep
// compares the transports in one spec. The renderers below reproduce the
// bespoke harness's pooled arithmetic bit-for-bit (pinned by
// testdata/equiv_fig8..table8).

// fig8 compares batching vs per-reading transmission for CoAP, CoCoA,
// and TCPlp in favorable (night) conditions: radio and CPU duty cycles.
// The file holds one protocols sweep without batching, then one with;
// each protocol's two cells are consecutive rows.
func fig8(o Opts, res []*scenario.SpecResult) *Table {
	var rows [][]*scenario.SpecResult
	for _, pair := range zip(res) {
		rows = append(rows, pair[:1], pair[1:])
	}
	return pivot(o, "fig8", "Effect of batching on power (favorable conditions)", rows, []column{
		label("Protocol", protoName),
		fixed("Batching", "no", "yes"),
		m("Reliability", 0, anemRel, pct), m("Radio DC", 0, anemRadioDC, pct), m("CPU DC", 0, anemCPUDC, pct),
	}, "paper Fig. 8: all three protocols ≈100% reliable and comparable; batching cuts both duty cycles sharply")
}

// protoName is the paper's name for the transport a protocols-sweep cell
// ran.
func protoName(sr *scenario.SpecResult) string {
	for _, p := range sr.Spec.Point {
		if p.Axis == "proto" {
			return map[string]string{"tcp": "TCPlp", "coap": "CoAP", "cocoa": "CoCoA"}[p.Value]
		}
	}
	return ""
}

// fig9 sweeps injected packet loss at the border router and reports
// reliability, retransmissions, and duty cycles for the three reliable
// protocols: one injected_loss × protocols sweep (TCPlp, CoCoA, CoAP).
func fig9(o Opts, res []*scenario.SpecResult) []*Table {
	rows := groups(res, 3)
	loss := label("Loss", func(sr *scenario.SpecResult) string { return pct(sr.Spec.Net.InjectedLoss) })
	each := func(metric func(scenario.Result) float64) []column {
		return []column{loss, m("TCPlp", 0, metric, pct), m("CoCoA", 1, metric, pct), m("CoAP", 2, metric, pct)}
	}
	// rate is a flow counter per 10 minutes per node of the row's j-th cell.
	rate := func(head string, j int, count func(scenario.Result) float64) column {
		return column{head, func(o Opts, _ int, row []*scenario.SpecResult) string {
			return o.cell(series(row[j], per10(row[j].Spec.Duration.D(), count)), f1)
		}}
	}
	return []*Table{
		pivot(o, "fig9a", "Reliability vs injected loss", rows, each(anemRel),
			"paper Fig. 9a: TCP and CoAP near 100% through 15% loss; CoCoA collapses from RTT inflation"),
		pivot(o, "fig9b", "Transport retransmissions per 10 min vs injected loss", rows, []column{
			loss, rate("TCPlp", 0, retransmits), rate("TCPlp RTOs", 0, timeouts),
			rate("CoCoA", 1, retransmits), rate("CoAP", 2, retransmits),
		}),
		pivot(o, "fig9c", "Radio duty cycle vs injected loss", rows, each(anemRadioDC)),
		pivot(o, "fig9d", "CPU duty cycle vs injected loss", rows, each(anemCPUDC)),
	}
}

// fig10 runs TCPlp and CoAP for a full day under diurnal interference
// and reports hourly radio duty cycles (dc_sample), split across the
// sensor nodes exactly as the paper does (§9.5) so both see the same
// conditions.
func fig10(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Hourly radio duty cycle over a day with diurnal interference",
		Columns: []string{"Hour", "TCPlp DC", "CoAP DC"},
	}
	// Every run of a spec takes the same number of samples.
	n := min(len(res[0].Runs[0].DCSamples), len(res[1].Runs[0].DCSamples))
	for h := 0; h < n; h++ {
		hour := func(r scenario.Result) float64 { return r.DCSamples[h] }
		t.AddRow(di(h), o.cell(series(res[0], hour), pct), o.cell(series(res[1], hour), pct))
	}
	t.Note("paper Fig. 10: CoAP cheaper at night; TCPlp comparable or better during working-hours interference")
	return t
}

// table8 summarizes full-day performance including the unreliable
// (nonconfirmable) baseline of §9.6: one spec per row.
func table8(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "table8", "Full-day performance with interference", groups(res, 1), []column{
		fixed("Protocol", "TCPlp", "CoAP", "Unreliable, no batch", "Unreliable, batch"),
		m("Reliability", 0, anemRel, pct), m("Radio DC", 0, anemRadioDC, pct), m("CPU DC", 0, anemCPUDC, pct),
	}, "paper Table 8: reliability costs ≈3x duty cycle vs the unreliable baseline; TCPlp 99.3%, CoAP 99.5%")
}
