package experiments

import (
	"fmt"

	"tcplp/internal/scenario"
)

// ccVariants is the congestion-control head-to-head: one bulk flow over
// the lossy three-hop chain, swept along two loss axes — uniform
// per-frame corruption (wireless noise) and the hidden-terminal
// link-retry delay d of Fig. 6 (collision losses) — once per registered
// variant. It asks the paper's natural follow-up question: which
// loss-response policy suits which loss process, holding the scenario
// fixed and varying only the algorithm. Each loss point is a variants
// sweep on one seed, so rows of a point differ only by the algorithm; the
// d-axis specs are the ones that set retry_delay.
func ccVariants(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:    "ccvariants",
		Title: "Congestion-control variants, three hops: frame-loss and link-retry-delay sweeps",
		Columns: []string{"Axis", "Variant", "Goodput kb/s",
			"Timeouts", "Fast rtx", "SRTT ms"},
	}
	for _, sr := range res {
		axis := pct(sr.Spec.Net.PER)
		if d := sr.Spec.Net.RetryDelay; d != nil {
			axis = fmt.Sprintf("d=%.0fms", d.D().Milliseconds())
		}
		t.AddRow(axis, sr.Runs[0].Flows[0].Variant,
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.Timeouts) }), f0),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.FastRtx) }), f0),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.SRTTms }), f1))
	}
	t.Note("with a 4-segment window the variants converge at low loss (§7.3 small-window robustness); they separate as corruption losses mount and the backoff policy starts to matter")
	t.Note("the d-axis reproduces Fig. 6 conditions: at d=0 losses are hidden-terminal collisions, which retry-delay masks by d=40 ms")
	return t
}
