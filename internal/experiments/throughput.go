package experiments

import (
	"fmt"
	"slices"

	"tcplp/internal/model"
	"tcplp/internal/scenario"
	"tcplp/internal/uip"
)

// fig4: the MSS from 2 to 8 frames over the Fig. 2 setup (mote ↔ border
// router ↔ wired host, one wireless hop), uplink and downlink goodput — one
// seg_frames sweep per direction.
func fig4(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "fig4", "Goodput vs maximum segment size (frames), one hop via border router", zip(res), []column{
		label("MSS (frames)", func(sr *scenario.SpecResult) string { return di(sr.Spec.Net.SegFrames) }),
		label("MSS (bytes)", func(sr *scenario.SpecResult) string { return di(sr.Runs[0].Flows[0].MSS) }),
		m("Uplink kb/s", 0, goodput, f1), m("Downlink kb/s", 1, goodput, f1),
	}, "paper Fig. 4: poor goodput at small MSS from header overhead, diminishing gains past 5 frames")
}

// fig5: downlink goodput and RTT through the border router against the
// send/receive buffer (window) size in segments — one window_segs sweep.
func fig5(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "fig5", "Goodput and RTT vs window (buffer) size, downlink", groups(res, 1), []column{
		label("Window (segs)", func(sr *scenario.SpecResult) string { return di(sr.Spec.Net.WindowSegs) }),
		label("Window (bytes)", func(sr *scenario.SpecResult) string { return di(sr.Spec.Net.WindowSegs * sr.Runs[0].Flows[0].MSS) }),
		m("Goodput kb/s", 0, goodput, f1), m("SRTT ms", 0, srtt, f1),
	}, "paper Fig. 5: goodput levels off once the window exceeds the ≈1.6 KiB bandwidth-delay product")
}

// table7: TCPlp against the simplified embedded stacks of prior studies,
// one hop and three hops — a (1-hop, 3-hop) pair of specs per stack
// profile, TCPlp's pair last.
func table7(o Opts, res []*scenario.SpecResult) *Table {
	// stack is the k-th of a row's stack name, MSS and window.
	stack := func(head string, k int) column {
		return label(head, func(sr *scenario.SpecResult) string {
			key := sr.Spec.Flows[0].Profile
			if key == "" {
				return [3]string{"TCPlp", "5 frames", fmt.Sprintf("%d segs", sr.Runs[0].Flows[0].WindowSegs)}[k]
			}
			p, _ := uip.ParseProfile(key) // validated
			return [3]string{p.String(), fmt.Sprintf("%d frame(s)", p.SegFrames()), "1 seg"}[k]
		})
	}
	return pivot(o, "table7", "Goodput of simplified stacks vs TCPlp", groups(res, 2), []column{
		stack("Stack", 0), stack("MSS", 1), stack("Window", 2),
		m("1-hop kb/s", 0, goodput, f1), m("3-hop kb/s", 1, goodput, f1),
	}, "paper Table 7: uIP-class 1.5-15 kb/s one hop vs TCPlp ≈75 kb/s — a 5-40x gap")
}

// fig6: the four panels of Fig. 6 plus the Fig. 7b recovery counts — the
// effect of the random link-retry delay d on loss, goodput (with the
// Eq. 2 prediction), RTT and total frames, at one hop (the first
// retry_delay sweep) and three hops (the second).
func fig6(o Opts, res []*scenario.SpecResult) []*Table {
	one, three := groups(res[:len(res)/2], 1), groups(res[len(res)/2:], 1)
	d := label("d (ms)", func(sr *scenario.SpecResult) string { return f1(sr.Spec.Net.RetryDelay.D().Milliseconds()) })
	loss := []column{d, m("Seg loss", 0, segLoss, pct), m("Goodput kb/s", 0, goodput, f1), m("Eq.2 pred kb/s", 0, eq2Pred, f1)}
	return []*Table{
		pivot(o, "fig6a", "One hop: segment loss, goodput, predicted goodput vs max link-retry delay", one, loss),
		pivot(o, "fig6b", "Three hops: segment loss, goodput, predicted goodput vs max link-retry delay", three, loss,
			"paper: ≈6% loss at d=0 from hidden terminals, <1% by d=30 ms, yet goodput nearly flat — the §7.3 small-window robustness"),
		pivot(o, "fig6c", "Three hops: round-trip time vs max link-retry delay", three,
			[]column{d, m("Median RTT ms", 0, medianRTT, f1), m("SRTT ms", 0, srtt, f1)}),
		pivot(o, "fig6d", "Three hops: total frames transmitted vs max link-retry delay", three,
			[]column{d, m("Frames", 0, frames, f0)},
			"paper Fig. 6d: larger d sends fewer total frames (fewer futile retries)"),
		pivot(o, "fig7b", "Three hops: TCP loss recovery vs max link-retry delay", three,
			[]column{d, m("Timeouts", 0, timeouts, f0), m("Fast retransmissions", 0, fastRtx, f0)}),
	}
}

// fig7a summarises Fig. 7a: the congestion window of a three-hop flow
// with d = 0 (hidden-terminal losses) over an interval. -format json of
// the same file prints the trajectory itself (runs[0].flows[0].cwnd_trace).
func fig7a(o Opts, res []*scenario.SpecResult) *Table {
	sr := res[0]
	t := &Table{
		ID:      "fig7a",
		Title:   "cwnd behaviour, three hops, d=0 (summary; the series: -scenario examples/scenarios/paper/fig7a.json -format json)",
		Columns: []string{"Metric", "Value"},
	}
	events := series(sr, cwndEvents)
	t.AddRow("congestion events traced", o.cell(events, f0))
	if !slices.Contains(events, 0) {
		t.AddRow("samples at max window", o.cell(series(sr, atMaxWindow), pct))
	}
	t.AddRow("timeouts", o.cell(series(sr, timeouts), f0))
	t.AddRow("fast retransmissions", o.cell(series(sr, fastRtx), f0))
	t.Note("paper Fig. 7a: cwnd recovers to the (4-segment) maximum almost immediately after every loss — no sawtooth")
	return t
}

// hopSweep: the §7.2 hop-count measurement at d = 40 ms against the
// B/min(h,3) radio-scheduling bound — one hops sweep, the first cell one
// hop. The paper's 4-hop outlier (which needed a 6-segment window to fill
// the pipe) is a second spec of the same name in the same file.
func hopSweep(o Opts, res []*scenario.SpecResult) *Table {
	hops := func(sr *scenario.SpecResult) int { return sr.Spec.Topology.Nodes - 1 }
	oneHop := series(res[0], goodput)
	// Pair seed index k of a row with seed index k of the 1-hop cell. The
	// cells run different channel realizations (seed_step offsets them),
	// so a multi-seed ±σ on this column is the spread of ratios of
	// independent runs, not a common-random-number paired estimate.
	ratio := column{"×1-hop", func(o Opts, _ int, row []*scenario.SpecResult) string {
		g := series(row[0], goodput)
		ratios := make([]float64, len(g))
		for i, v := range g {
			if ref := oneHop[i%len(oneHop)]; ref > 0 {
				ratios[i] = v / ref
			}
		}
		return o.cell(ratios, f2)
	}}
	return pivot(o, "hopsweep", "Goodput vs hop count (d = 40 ms)", groups(res, 1), []column{
		label("Hops", func(sr *scenario.SpecResult) string { return di(hops(sr)) }),
		m("Goodput kb/s", 0, goodput, f1), ratio,
		label("Bound factor", func(sr *scenario.SpecResult) string { return f2(model.MultihopFactor(hops(sr))) }),
	}, "paper §7.2: 64.1 / 28.3 / 19.5 / 17.5 kb/s for 1-4 hops, tracking B/min(h,3)")
}

// table9: fairness and efficiency for two simultaneous flows
// (Appendix A) — one hop and three hops with the standard 4-segment
// window, three hops with a 7-segment window with and without RED/ECN at
// the relays, and the same w=7 bottleneck with a paced BBR flow against
// NewReno. Each row is a twin-leaf spec named after the row.
func table9(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "table9", "Two simultaneous flows: fairness and efficiency", groups(res, 1), []column{
		label("Scenario", func(sr *scenario.SpecResult) string { return sr.Spec.Name }),
		m("Flow A kb/s", 0, goodput, f1), m("Flow B kb/s", 0, ofFlow(1, goodput), f1),
		m("Jain index", 0, jain, f3), m("Aggregate kb/s", 0, aggKbps, f1),
	}, "paper Table 9: fair at w=4; w=7 needs RED/ECN at relays to restore fairness and keep RTT low",
		"the mixed row asks whether pacing alone fixes the w=7 unfairness without AQM at the relays")
}
