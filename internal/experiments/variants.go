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
	return pivot(o, "ccvariants", "Congestion-control variants, three hops: frame-loss and link-retry-delay sweeps", groups(res, 1), []column{
		label("Axis", func(sr *scenario.SpecResult) string {
			if d := sr.Spec.Net.RetryDelay; d != nil {
				return fmt.Sprintf("d=%.0fms", d.D().Milliseconds())
			}
			return pct(sr.Spec.Net.PER)
		}),
		label("Variant", variant),
		m("Goodput kb/s", 0, goodput, f1), m("Timeouts", 0, timeouts, f0),
		m("Fast rtx", 0, fastRtx, f0), m("SRTT ms", 0, srtt, f1),
	}, "with a 4-segment window the variants converge at low loss (§7.3 small-window robustness); they separate as corruption losses mount and the backoff policy starts to matter",
		"the d-axis reproduces Fig. 6 conditions: at d=0 losses are hidden-terminal collisions, which retry-delay masks by d=40 ms")
}

// variant is the congestion-control variant a cell's first flow ran.
func variant(sr *scenario.SpecResult) string { return sr.Runs[0].Flows[0].Variant }
