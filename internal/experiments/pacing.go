package experiments

import "tcplp/internal/scenario"

// pacing is the paced-vs-unpaced head-to-head: the same bulk flow run
// under ACK-clocked NewReno and paced BBR over the two scenarios where
// burst clocking hurts most — the hidden-terminal chain (d = 0, where
// an ACK releasing a back-to-back window train maximizes intra-path
// collisions, §7.1) and a duty-cycled leaf (where a burst arriving
// while the radio sleeps piles up in the parent's indirect queue,
// §9.2). Each scenario is a variants sweep on one seed, so its rows
// differ only by the algorithm.
func pacing(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:    "pacing",
		Title: "Send pacing: ACK-clocked NewReno vs paced BBR",
		Columns: []string{"Scenario", "Variant", "Goodput kb/s", "Rtx",
			"Timeouts", "SRTT ms"},
	}
	for i, sr := range res {
		label := "hidden terminal (3 hops, d=0)"
		if i >= len(res)/2 {
			label = "duty-cycled leaf (250 ms sleep, downlink)"
		}
		t.AddRow(label, sr.Runs[0].Flows[0].Variant,
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.Timeouts + f.FastRtx) }), f0),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.Timeouts) }), f0),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.SRTTms }), f1))
	}
	t.Note("paced BBR releases at most 2 segments back-to-back (pinned by the transfer-test gap assertion); ACK-clocked variants emit full window trains")
	return t
}
