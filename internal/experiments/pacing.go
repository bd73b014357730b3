package experiments

import (
	"strings"

	"tcplp/internal/scenario"
)

// pacing is the paced-vs-unpaced head-to-head: the same bulk flow run
// under ACK-clocked NewReno and paced BBR over the two scenarios where
// burst clocking hurts most — the hidden-terminal chain (d = 0, where
// an ACK releasing a back-to-back window train maximizes intra-path
// collisions, §7.1) and a duty-cycled leaf (where a burst arriving
// while the radio sleeps piles up in the parent's indirect queue,
// §9.2). Each scenario is a variants sweep on one seed, so its rows
// differ only by the algorithm.
func pacing(o Opts, res []*scenario.SpecResult) *Table {
	scenarios := map[string]string{
		"pacing-hidden":     "hidden terminal (3 hops, d=0)",
		"pacing-dutycycled": "duty-cycled leaf (250 ms sleep, downlink)",
	}
	return pivot(o, "pacing", "Send pacing: ACK-clocked NewReno vs paced BBR", groups(res, 1), []column{
		label("Scenario", func(sr *scenario.SpecResult) string {
			name, _, _ := strings.Cut(sr.Spec.Name, "/") // the spec's, not its cell's
			return scenarios[name]
		}),
		label("Variant", variant),
		m("Goodput kb/s", 0, goodput, f1), m("Rtx", 0, recoveries, f0),
		m("Timeouts", 0, timeouts, f0), m("SRTT ms", 0, srtt, f1),
	}, "paced BBR releases at most 2 segments back-to-back (pinned by the transfer-test gap assertion); ACK-clocked variants emit full window trains")
}
