package experiments

import (
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
)

// The §9 application study — anemometer telemetry over TCPlp, CoAP,
// CoCoA, and unreliable transports — is office-topology specs with sleepy
// sensor nodes and one anemometer flow per sensor; a protocols sweep
// compares the transports in one spec. The renderers below reproduce the
// bespoke harness's pooled arithmetic bit-for-bit (pinned by
// testdata/equiv_fig8..table8).

// anemRel pools one run's reliability exactly as §9.2 defines it: the
// shared delivery-ratio formula over reading counts summed across the
// sensors (the ratio of sums, not the mean of per-flow ratios).
func anemRel(run scenario.Result) float64 {
	var gen, deliv, backlog uint64
	for _, fl := range run.Flows {
		gen += fl.Generated
		deliv += fl.Delivered
		backlog += fl.Backlog
	}
	return scenario.DeliveryRatio(gen, deliv, backlog)
}

// anemRadioDC / anemCPUDC are the mean duty cycles across sensor nodes.
func anemRadioDC(run scenario.Result) float64 {
	dc := 0.0
	for _, fl := range run.Flows {
		dc += fl.RadioDC
	}
	return dc / float64(len(run.Flows))
}

func anemCPUDC(run scenario.Result) float64 {
	dc := 0.0
	for _, fl := range run.Flows {
		dc += fl.CPUDC
	}
	return dc / float64(len(run.Flows))
}

// anemPer10 normalizes a summed per-flow counter to events per 10
// minutes per node.
func anemPer10(run scenario.Result, dur sim.Duration, count func(scenario.FlowResult) uint64) float64 {
	per10 := dur.Seconds() / 600
	if per10 <= 0 {
		return 0
	}
	var total uint64
	for _, fl := range run.Flows {
		total += count(fl)
	}
	return float64(total) / per10 / float64(len(run.Flows))
}

// fig8 compares batching vs per-reading transmission for CoAP, CoCoA,
// and TCPlp in favorable (night) conditions: radio and CPU duty cycles.
// The file holds one protocols sweep without batching, then one with.
func fig8(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "Effect of batching on power (favorable conditions)",
		Columns: []string{"Protocol", "Batching", "Reliability", "Radio DC", "CPU DC"},
	}
	nobatch, batch := res[:len(res)/2], res[len(res)/2:]
	for i := range nobatch {
		for bi, sr := range []*scenario.SpecResult{nobatch[i], batch[i]} {
			t.AddRow(protoName(sr), []string{"no", "yes"}[bi],
				o.cell(runSeries(sr, anemRel), pct),
				o.cell(runSeries(sr, anemRadioDC), pct),
				o.cell(runSeries(sr, anemCPUDC), pct))
		}
	}
	t.Note("paper Fig. 8: all three protocols ≈100%% reliable and comparable; batching cuts both duty cycles sharply")
	return t
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
	rel := &Table{ID: "fig9a", Title: "Reliability vs injected loss",
		Columns: []string{"Loss", "TCPlp", "CoCoA", "CoAP"}}
	rtx := &Table{ID: "fig9b", Title: "Transport retransmissions per 10 min vs injected loss",
		Columns: []string{"Loss", "TCPlp", "TCPlp RTOs", "CoCoA", "CoAP"}}
	radio := &Table{ID: "fig9c", Title: "Radio duty cycle vs injected loss",
		Columns: []string{"Loss", "TCPlp", "CoCoA", "CoAP"}}
	cpu := &Table{ID: "fig9d", Title: "CPU duty cycle vs injected loss",
		Columns: []string{"Loss", "TCPlp", "CoCoA", "CoAP"}}
	rtxOf := func(fl scenario.FlowResult) uint64 { return fl.Retransmits }
	rtoOf := func(fl scenario.FlowResult) uint64 { return fl.Timeouts }
	for i := 0; i+2 < len(res); i += 3 {
		tcp, cocoa, coap := res[i], res[i+1], res[i+2]
		l := pct(tcp.Spec.Net.InjectedLoss)
		relOf := func(sr *scenario.SpecResult) string { return o.cell(runSeries(sr, anemRel), pct) }
		rel.AddRow(l, relOf(tcp), relOf(cocoa), relOf(coap))
		per10 := func(sr *scenario.SpecResult, count func(scenario.FlowResult) uint64) string {
			return o.cell(runSeries(sr, func(r scenario.Result) float64 {
				return anemPer10(r, sr.Spec.Duration.D(), count)
			}), f1)
		}
		rtx.AddRow(l, per10(tcp, rtxOf), per10(tcp, rtoOf), per10(cocoa, rtxOf), per10(coap, rtxOf))
		radioOf := func(sr *scenario.SpecResult) string { return o.cell(runSeries(sr, anemRadioDC), pct) }
		radio.AddRow(l, radioOf(tcp), radioOf(cocoa), radioOf(coap))
		cpuOf := func(sr *scenario.SpecResult) string { return o.cell(runSeries(sr, anemCPUDC), pct) }
		cpu.AddRow(l, cpuOf(tcp), cpuOf(cocoa), cpuOf(coap))
	}
	rel.Note("paper Fig. 9a: TCP and CoAP near 100%% through 15%% loss; CoCoA collapses from RTT inflation")
	return []*Table{rel, rtx, radio, cpu}
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
	dcSeries := func(sr *scenario.SpecResult, h int) []float64 {
		out := make([]float64, 0, len(sr.Runs))
		for _, run := range sr.Runs {
			if h < len(run.DCSamples) {
				out = append(out, run.DCSamples[h])
			}
		}
		return out
	}
	n := min(len(res[0].Runs[0].DCSamples), len(res[1].Runs[0].DCSamples))
	for h := 0; h < n; h++ {
		t.AddRow(di(h), o.cell(dcSeries(res[0], h), pct), o.cell(dcSeries(res[1], h), pct))
	}
	t.Note("paper Fig. 10: CoAP cheaper at night; TCPlp comparable or better during working-hours interference")
	return t
}

// table8 summarizes full-day performance including the unreliable
// (nonconfirmable) baseline of §9.6: one spec per row.
func table8(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "table8",
		Title:   "Full-day performance with interference",
		Columns: []string{"Protocol", "Reliability", "Radio DC", "CPU DC"},
	}
	names := []string{"TCPlp", "CoAP", "Unreliable, no batch", "Unreliable, batch"}
	for i, sr := range res {
		t.AddRow(names[i],
			o.cell(runSeries(sr, anemRel), pct),
			o.cell(runSeries(sr, anemRadioDC), pct),
			o.cell(runSeries(sr, anemCPUDC), pct))
	}
	t.Note("paper Table 8: reliability costs ≈3x duty cycle vs the unreliable baseline; TCPlp 99.3%%, CoAP 99.5%%")
	return t
}
