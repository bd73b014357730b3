package experiments

import (
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
)

// The Appendix C duty-cycled-link study: each measurement is a two-node
// chain whose leaf is a sleepy node with the fast-poll hint disabled
// (Appendix C studies the raw protocol), driving one bulk flow to or from
// the wired host — an uplink spec, then a downlink spec, per row. The
// renderers reproduce the bespoke loop bit-for-bit
// (testdata/equiv_fig12..fig14).

// fig12 sweeps a fixed sleep interval and reports TCP RTT and goodput in
// both directions over the duty-cycled link.
func fig12(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "TCP over a duty-cycled link: fixed sleep interval sweep",
		Columns: []string{"Sleep interval", "Up kb/s", "Up RTT ms", "Down kb/s", "Down RTT ms"},
	}
	meanRTT := func(f scenario.FlowResult) float64 { return f.MeanRTTms }
	for i := 0; i+1 < len(res); i += 2 {
		up, down := res[i], res[i+1]
		t.AddRow(sim.Duration(up.Spec.Nodes[0].SleepInterval).String(),
			o.cell(flowSeries(up, 0, goodputOf), f1),
			o.cell(flowSeries(up, 0, meanRTT), f1),
			o.cell(flowSeries(down, 0, goodputOf), f1),
			o.cell(flowSeries(down, 0, meanRTT), f1))
	}
	t.Note("paper Fig. 12: ≈full goodput at 20 ms; throughput collapses as the interval exceeds what the 4-segment window can cover (uplink RTT ≈ sleep interval from self-clocking)")
	return t
}

// fig13 reports the RTT distribution at a fixed two-second sleep
// interval, uplink and downlink.
func fig13(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig13",
		Title:   "RTT distribution, duty-cycled link, 2 s sleep interval",
		Columns: []string{"Direction", "p10 ms", "Median ms", "p90 ms", "Max ms"},
	}
	for i, label := range []string{"uplink", "downlink"} {
		sr := res[i]
		t.AddRow(label,
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.RTTp10ms }), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.MedianRTTms }), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.RTTp90ms }), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.RTTMaxms }), f1))
	}
	t.Note("paper Fig. 13: uplink RTT ≈ the sleep interval (self-clocking); downlink clusters at multiples of it")
	return t
}

// fig14 evaluates the Trickle-based adaptive sleep interval of Appendix
// C.2: goodput with 6-segment buffers, and — via the spec's idle phase,
// which -scale leaves alone — the duty cycle after traffic stops.
func fig14(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig14",
		Title:   "Adaptive (Trickle) sleep interval: smin=20ms smax=5s, 6-segment buffers",
		Columns: []string{"Direction", "Goodput kb/s", "Median RTT ms", "Idle duty cycle"},
	}
	for i, label := range []string{"uplink", "downlink"} {
		sr := res[i]
		t.AddRow(label,
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.MedianRTTms }), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.IdleRadioDC }), pct))
	}
	t.Note("paper §C.2: 68.6 kb/s up / 55.6 kb/s down with a ≈0.1%% idle duty cycle")
	return t
}
