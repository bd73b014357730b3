package experiments

import (
	"fmt"
	"math"

	"tcplp/internal/model"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/uip"
)

// msDur converts a milliseconds measurement back to a duration without
// losing the underlying microsecond count to float rounding.
func msDur(ms float64) sim.Duration { return sim.Duration(math.Round(ms * 1000)) }

// segLoss computes the paper's segment-loss metric for a single-flow
// run: in-network datagram losses (link failures, queue drops,
// reassembly timeouts — losses not masked by link retries) over the
// data segments the sender put on the wire. Counting TCP
// retransmissions instead would inflate it with spurious RTOs.
func segLoss(run scenario.Result) float64 {
	fl := run.Flows[0]
	dataSegs := float64(fl.SentBytes) / float64(fl.MSS)
	if dataSegs <= 0 {
		return 0
	}
	p := float64(run.LossEvents) / dataSegs
	if p > 1 {
		p = 1
	}
	return p
}

// eq2Pred is the Eq. 2 predicted goodput in kb/s for a single-flow run,
// from the run's own RTT, window, and measured segment loss.
func eq2Pred(run scenario.Result) float64 {
	fl := run.Flows[0]
	rtt := msDur(fl.SRTTms)
	if rtt <= 0 {
		rtt = msDur(fl.MedianRTTms)
	}
	return model.TCPlpGoodput(fl.MSS, rtt, fl.WindowSegs, segLoss(run)) / 1000
}

// fig4: the MSS from 2 to 8 frames over the Fig. 2 setup (mote ↔ border
// router ↔ wired host, one wireless hop), uplink and downlink goodput — one
// seg_frames sweep per direction.
func fig4(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig4",
		Title:   "Goodput vs maximum segment size (frames), one hop via border router",
		Columns: []string{"MSS (frames)", "MSS (bytes)", "Uplink kb/s", "Downlink kb/s"},
	}
	up, down := res[:len(res)/2], res[len(res)/2:]
	for i, sr := range up {
		t.AddRow(di(sr.Spec.Net.SegFrames), di(sr.Runs[0].Flows[0].MSS),
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(down[i], 0, goodputOf), f1))
	}
	t.Note("paper Fig. 4: poor goodput at small MSS from header overhead, diminishing gains past 5 frames")
	return t
}

// fig5: downlink goodput and RTT through the border router against the
// send/receive buffer (window) size in segments — one window_segs sweep.
func fig5(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Goodput and RTT vs window (buffer) size, downlink",
		Columns: []string{"Window (segs)", "Window (bytes)", "Goodput kb/s", "SRTT ms"},
	}
	for _, sr := range res {
		segs := sr.Spec.Net.WindowSegs
		t.AddRow(di(segs), di(segs*sr.Runs[0].Flows[0].MSS),
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.SRTTms }), f1))
	}
	t.Note("paper Fig. 5: goodput levels off once the window exceeds the ≈1.6 KiB bandwidth-delay product")
	return t
}

// table7: TCPlp against the simplified embedded stacks of prior studies,
// one hop and three hops — a (1-hop, 3-hop) pair of specs per stack
// profile, TCPlp's pair last.
func table7(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "table7",
		Title:   "Goodput of simplified stacks vs TCPlp",
		Columns: []string{"Stack", "MSS", "Window", "1-hop kb/s", "3-hop kb/s"},
	}
	for i := 0; i+1 < len(res); i += 2 {
		one, three := res[i], res[i+1]
		stack, mss, window := "TCPlp", "5 frames", fmt.Sprintf("%d segs", one.Runs[0].Flows[0].WindowSegs)
		if key := one.Spec.Flows[0].Profile; key != "" {
			p, _ := uip.ParseProfile(key) // validated
			stack, mss, window = p.String(), fmt.Sprintf("%d frame(s)", p.SegFrames()), "1 seg"
		}
		t.AddRow(stack, mss, window,
			o.cell(flowSeries(one, 0, goodputOf), f1),
			o.cell(flowSeries(three, 0, goodputOf), f1))
	}
	t.Note("paper Table 7: uIP-class 1.5-15 kb/s one hop vs TCPlp ≈75 kb/s — a 5-40x gap")
	return t
}

// fig6: the four panels of Fig. 6 plus the Fig. 7b recovery counts — the
// effect of the random link-retry delay d on loss, goodput (with the
// Eq. 2 prediction), RTT and total frames, at one hop (the first
// retry_delay sweep) and three hops (the second).
func fig6(o Opts, res []*scenario.SpecResult) []*Table {
	one, three := res[:len(res)/2], res[len(res)/2:]
	d := func(sr *scenario.SpecResult) string { return f1(sr.Spec.Net.RetryDelay.D().Milliseconds()) }
	mkTab := func(id, title string, cols []string) *Table {
		return &Table{ID: id, Title: title, Columns: cols}
	}
	lossPanel := func(id, title string, cells []*scenario.SpecResult) *Table {
		tab := mkTab(id, title, []string{"d (ms)", "Seg loss", "Goodput kb/s", "Eq.2 pred kb/s"})
		for _, sr := range cells {
			tab.AddRow(d(sr),
				o.cell(runSeries(sr, segLoss), pct),
				o.cell(flowSeries(sr, 0, goodputOf), f1),
				o.cell(runSeries(sr, eq2Pred), f1))
		}
		return tab
	}
	t6a := lossPanel("fig6a", "One hop: segment loss, goodput, predicted goodput vs max link-retry delay", one)
	t6b := lossPanel("fig6b", "Three hops: segment loss, goodput, predicted goodput vs max link-retry delay", three)
	t6c := mkTab("fig6c", "Three hops: round-trip time vs max link-retry delay",
		[]string{"d (ms)", "Median RTT ms", "SRTT ms"})
	t6d := mkTab("fig6d", "Three hops: total frames transmitted vs max link-retry delay",
		[]string{"d (ms)", "Frames"})
	t7b := mkTab("fig7b", "Three hops: TCP loss recovery vs max link-retry delay",
		[]string{"d (ms)", "Timeouts", "Fast retransmissions"})
	for _, sr := range three {
		t6c.AddRow(d(sr),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.MedianRTTms }), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.SRTTms }), f1))
		t6d.AddRow(d(sr),
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return float64(r.FramesSent) }), f0))
		t7b.AddRow(d(sr),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.Timeouts) }), f0),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.FastRtx) }), f0))
	}
	t6b.Note("paper: ≈6%% loss at d=0 from hidden terminals, <1%% by d=30 ms, yet goodput nearly flat — the §7.3 small-window robustness")
	t6d.Note("paper Fig. 6d: larger d sends fewer total frames (fewer futile retries)")
	return []*Table{t6a, t6b, t6c, t6d, t7b}
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
	traced := true
	for _, run := range sr.Runs {
		traced = traced && len(run.Flows[0].CwndTrace) > 0
	}
	t.AddRow("congestion events traced",
		o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(len(f.CwndTrace)) }), f0))
	if traced {
		t.AddRow("samples at max window", o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 {
			atMax := 0
			for _, p := range f.CwndTrace {
				if p.Cwnd >= f.WindowSegs*f.MSS {
					atMax++
				}
			}
			return float64(atMax) / float64(len(f.CwndTrace))
		}), pct))
	}
	t.AddRow("timeouts", o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.Timeouts) }), f0))
	t.AddRow("fast retransmissions", o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.FastRtx) }), f0))
	t.Note("paper Fig. 7a: cwnd recovers to the (4-segment) maximum almost immediately after every loss — no sawtooth")
	return t
}

// hopSweep: the §7.2 hop-count measurement at d = 40 ms against the
// B/min(h,3) radio-scheduling bound — one hops sweep, the first cell one
// hop. The paper's 4-hop outlier (which needed a 6-segment window to fill
// the pipe) is a per-cell override in the same grid.
func hopSweep(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "hopsweep",
		Title:   "Goodput vs hop count (d = 40 ms)",
		Columns: []string{"Hops", "Goodput kb/s", "×1-hop", "Bound factor"},
	}
	oneHop := flowSeries(res[0], 0, goodputOf)
	for _, sr := range res {
		hops := sr.Spec.Topology.Nodes - 1
		g := flowSeries(sr, 0, goodputOf)
		// Pair seed index k of this hop count with seed index k of the
		// 1-hop cell. The cells run different channel realizations
		// (seed_step offsets them), so a multi-seed ±σ on this column is
		// the spread of ratios of independent runs, not a
		// common-random-number paired estimate.
		ratios := make([]float64, len(g))
		for i, v := range g {
			if ref := oneHop[i%len(oneHop)]; ref > 0 {
				ratios[i] = v / ref
			}
		}
		t.AddRow(di(hops), o.cell(g, f1), o.cell(ratios, f2),
			f2(model.MultihopFactor(hops)))
	}
	t.Note("paper §7.2: 64.1 / 28.3 / 19.5 / 17.5 kb/s for 1-4 hops, tracking B/min(h,3)")
	return t
}

// table9: fairness and efficiency for two simultaneous flows
// (Appendix A) — one hop and three hops with the standard 4-segment
// window, three hops with a 7-segment window with and without RED/ECN at
// the relays, and the same w=7 bottleneck with a paced BBR flow against
// NewReno. Each row is a twin-leaf spec named after the row.
func table9(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:      "table9",
		Title:   "Two simultaneous flows: fairness and efficiency",
		Columns: []string{"Scenario", "Flow A kb/s", "Flow B kb/s", "Jain index", "Aggregate kb/s"},
	}
	for _, sr := range res {
		t.AddRow(sr.Spec.Name,
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(sr, 1, goodputOf), f1),
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return r.Jain }), f3),
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return r.AggregateKbps }), f1))
	}
	t.Note("paper Table 9: fair at w=4; w=7 needs RED/ECN at relays to restore fairness and keep RTT low")
	t.Note("the mixed row asks whether pacing alone fixes the w=7 unfairness without AQM at the relays")
	return t
}
