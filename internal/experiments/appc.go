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
	return pivot(o, "fig12", "TCP over a duty-cycled link: fixed sleep interval sweep", groups(res, 2), []column{
		label("Sleep interval", func(sr *scenario.SpecResult) string { return sim.Duration(sr.Spec.Nodes[0].SleepInterval).String() }),
		m("Up kb/s", 0, goodput, f1), m("Up RTT ms", 0, meanRTT, f1),
		m("Down kb/s", 1, goodput, f1), m("Down RTT ms", 1, meanRTT, f1),
	}, "paper Fig. 12: ≈full goodput at 20 ms; throughput collapses as the interval exceeds what the 4-segment window can cover (uplink RTT ≈ sleep interval from self-clocking)")
}

// fig13 reports the RTT distribution at a fixed two-second sleep
// interval, uplink and downlink.
func fig13(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "fig13", "RTT distribution, duty-cycled link, 2 s sleep interval", groups(res, 1), []column{
		fixed("Direction", "uplink", "downlink"),
		m("p10 ms", 0, rttP10, f1), m("Median ms", 0, medianRTT, f1),
		m("p90 ms", 0, rttP90, f1), m("Max ms", 0, rttMax, f1),
	}, "paper Fig. 13: uplink RTT ≈ the sleep interval (self-clocking); downlink clusters at multiples of it")
}

// fig14 evaluates the Trickle-based adaptive sleep interval of Appendix
// C.2: goodput with 6-segment buffers, and — via the spec's idle phase,
// which -scale leaves alone — the duty cycle after traffic stops.
func fig14(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "fig14", "Adaptive (Trickle) sleep interval: smin=20ms smax=5s, 6-segment buffers", groups(res, 1), []column{
		fixed("Direction", "uplink", "downlink"),
		m("Goodput kb/s", 0, goodput, f1), m("Median RTT ms", 0, medianRTT, f1), m("Idle duty cycle", 0, idleDC, pct),
	}, "paper §C.2: 68.6 kb/s up / 55.6 kb/s down with a ≈0.1% idle duty cycle")
}
