package experiments

import (
	"fmt"
	"math"

	"tcplp/internal/model"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/uip"
)

// Scale shrinks experiment durations for quick runs (benchmarks use
// Scale < 1); 1.0 reproduces the full published sweeps.
type Scale float64

func (s Scale) dur(d sim.Duration) sim.Duration {
	out := sim.Duration(float64(d) * float64(s))
	if out < 5*sim.Second {
		out = 5 * sim.Second
	}
	return out
}

// Every simulating experiment below is a declarative scenario spec (or
// sweep of specs) fanned out by scenario.Runner plus a renderer over
// the per-seed results: one engine-instantiation path, one aggregation
// path, one output path. Multi-seed runs (Opts.Seeds > 1) render
// mean ± σ cells; the worker pool only changes wall-clock time, never
// the tables.

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

// Fig4 sweeps the MSS from 2 to 8 frames over the Fig. 2 setup (mote ↔
// border router ↔ wired host, one wireless hop) and reports uplink and
// downlink goodput: one seg_frames-axis sweep spec per direction.
func Fig4(o Opts) *Table {
	t := &Table{
		ID:      "fig4",
		Title:   "Goodput vs maximum segment size (frames), one hop via border router",
		Columns: []string{"MSS (frames)", "MSS (bytes)", "Uplink kb/s", "Downlink kb/s"},
	}
	warm, dur := o.scale().dur(10*sim.Second), o.scale().dur(60*sim.Second)
	frames := []int{2, 3, 4, 5, 6, 7, 8}
	mk := func(dir string, from, to scenario.NodeRef, seed int64) *scenario.Spec {
		return &scenario.Spec{
			Name:     "fig4-" + dir,
			Topology: scenario.TopologySpec{Kind: scenario.TopoChain, Nodes: 2},
			Flows:    []scenario.FlowSpec{{From: from, To: to}},
			Sweep:    &scenario.Sweep{SegFrames: frames},
			Warmup:   scenario.Duration(warm),
			Duration: scenario.Duration(dur),
			Seeds:    o.seeds(seed),
		}
	}
	res := o.run([]*scenario.Spec{
		mk("up", scenario.NodeID(1), scenario.Host(), 40),
		mk("down", scenario.Host(), scenario.NodeID(1), 41),
	})
	up, down := res[:len(frames)], res[len(frames):]
	for i, fr := range frames {
		info := stack.SegmentSizing(fr, true)
		t.AddRow(di(fr), di(info.MSS),
			o.cell(flowSeries(up[i], 0, goodputOf), f1),
			o.cell(flowSeries(down[i], 0, goodputOf), f1))
	}
	t.Note("paper Fig. 4: poor goodput at small MSS from header overhead, diminishing gains past 5 frames")
	return t
}

// Fig5 sweeps the send/receive buffer (window) size in segments and
// reports downlink goodput and RTT (the paper's Fig. 5 measures the
// downlink through the border router): one window_segs-axis sweep.
func Fig5(o Opts) *Table {
	t := &Table{
		ID:      "fig5",
		Title:   "Goodput and RTT vs window (buffer) size, downlink",
		Columns: []string{"Window (segs)", "Window (bytes)", "Goodput kb/s", "SRTT ms"},
	}
	warm, dur := o.scale().dur(10*sim.Second), o.scale().dur(60*sim.Second)
	windows := []int{1, 2, 3, 4, 5, 6}
	res := o.run([]*scenario.Spec{{
		Name:     "fig5",
		Topology: scenario.TopologySpec{Kind: scenario.TopoChain, Nodes: 2},
		Flows:    []scenario.FlowSpec{{From: scenario.Host(), To: scenario.NodeID(1)}},
		Sweep:    &scenario.Sweep{WindowSegs: windows, SeedStep: 1},
		Warmup:   scenario.Duration(warm),
		Duration: scenario.Duration(dur),
		Seeds:    o.seeds(51),
	}})
	for i, segs := range windows {
		sr := res[i]
		mss := sr.Runs[0].Flows[0].MSS
		t.AddRow(di(segs), di(segs*mss),
			o.cell(flowSeries(sr, 0, goodputOf), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.SRTTms }), f1))
	}
	t.Note("paper Fig. 5: goodput levels off once the window exceeds the ≈1.6 KiB bandwidth-delay product")
	return t
}

// Table7 compares TCPlp against the simplified embedded stacks of prior
// studies, one hop and three hops: one spec per (profile, hop count),
// using the per-flow stack-profile knob.
func Table7(o Opts) *Table {
	t := &Table{
		ID:      "table7",
		Title:   "Goodput of simplified stacks vs TCPlp",
		Columns: []string{"Stack", "MSS", "Window", "1-hop kb/s", "3-hop kb/s"},
	}
	warm, dur := o.scale().dur(10*sim.Second), o.scale().dur(60*sim.Second)
	mk := func(name, profile string, hops int, seed int64) *scenario.Spec {
		return &scenario.Spec{
			Name:     name,
			Topology: scenario.TopologySpec{Kind: scenario.TopoChain, Nodes: hops + 1},
			Flows: []scenario.FlowSpec{{
				From: scenario.NodeID(hops), To: scenario.NodeID(0), Profile: profile,
			}},
			Warmup:   scenario.Duration(warm),
			Duration: scenario.Duration(dur),
			Seeds:    o.seeds(seed),
		}
	}
	var specs []*scenario.Spec
	for i, p := range uip.Profiles() {
		specs = append(specs,
			mk("table7-"+p.Key()+"-1hop", p.Key(), 1, int64(60+i)),
			mk("table7-"+p.Key()+"-3hop", p.Key(), 3, int64(70+i)))
	}
	specs = append(specs,
		mk("table7-tcplp-1hop", "", 1, 81),
		mk("table7-tcplp-3hop", "", 3, 82))
	res := o.run(specs)
	for i, p := range uip.Profiles() {
		t.AddRow(p.String(), fmt.Sprintf("%d frame(s)", p.SegFrames()), "1 seg",
			o.cell(flowSeries(res[2*i], 0, goodputOf), f1),
			o.cell(flowSeries(res[2*i+1], 0, goodputOf), f1))
	}
	n := len(res)
	t.AddRow("TCPlp", "5 frames", "4 segs",
		o.cell(flowSeries(res[n-2], 0, goodputOf), f1),
		o.cell(flowSeries(res[n-1], 0, goodputOf), f1))
	t.Note("paper Table 7: uIP-class 1.5-15 kb/s one hop vs TCPlp ≈75 kb/s — a 5-40x gap")
	return t
}

// DefaultRetryDelays is the Fig. 6 x-axis.
func DefaultRetryDelays() []sim.Duration {
	return []sim.Duration{0, 5 * sim.Millisecond, 10 * sim.Millisecond,
		20 * sim.Millisecond, 30 * sim.Millisecond, 40 * sim.Millisecond,
		60 * sim.Millisecond, 80 * sim.Millisecond, 100 * sim.Millisecond}
}

// Fig6 produces the four panels of Fig. 6 plus the Fig. 7b recovery
// counts: the effect of the random link-retry delay d on loss, goodput
// (with the Eq. 2 prediction), RTT, and total frames, for one and three
// hops. Both hop counts are retry_delay-axis sweeps fanned out in one
// RunAll, so -workers parallelizes the whole figure.
func Fig6(o Opts) []*Table {
	ds := DefaultRetryDelays()
	warm, dur := o.scale().dur(15*sim.Second), o.scale().dur(90*sim.Second)
	axis := make([]scenario.Duration, len(ds))
	for i, d := range ds {
		axis[i] = scenario.Duration(d)
	}
	mk := func(hops int, seed int64) *scenario.Spec {
		return &scenario.Spec{
			Name:     fmt.Sprintf("fig6-%dhop", hops),
			Topology: scenario.TopologySpec{Kind: scenario.TopoChain, Nodes: hops + 1},
			Flows:    []scenario.FlowSpec{{From: scenario.NodeID(hops), To: scenario.NodeID(0)}},
			Sweep:    &scenario.Sweep{RetryDelay: axis, SeedStep: 1},
			Warmup:   scenario.Duration(warm),
			Duration: scenario.Duration(dur),
			Seeds:    o.seeds(seed),
		}
	}
	res := o.run([]*scenario.Spec{mk(1, 110), mk(3, 130)})
	one, three := res[:len(ds)], res[len(ds):]

	mkTab := func(id, title string, cols []string) *Table {
		return &Table{ID: id, Title: title, Columns: cols}
	}
	lossPanel := func(id, title string, cells []*scenario.SpecResult) *Table {
		tab := mkTab(id, title, []string{"d (ms)", "Seg loss", "Goodput kb/s", "Eq.2 pred kb/s"})
		for i, sr := range cells {
			tab.AddRow(f1(ds[i].Milliseconds()),
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
	for i, sr := range three {
		d := f1(ds[i].Milliseconds())
		t6c.AddRow(d,
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.MedianRTTms }), f1),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return f.SRTTms }), f1))
		t6d.AddRow(d,
			o.cell(runSeries(sr, func(r scenario.Result) float64 { return float64(r.FramesSent) }), f0))
		t7b.AddRow(d,
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.Timeouts) }), f0),
			o.cell(flowSeries(sr, 0, func(f scenario.FlowResult) float64 { return float64(f.FastRtx) }), f0))
	}
	t6b.Note("paper: ≈6%% loss at d=0 from hidden terminals, <1%% by d=30 ms, yet goodput nearly flat — the §7.3 small-window robustness")
	t6d.Note("paper Fig. 6d: larger d sends fewer total frames (fewer futile retries)")
	return []*Table{t6a, t6b, t6c, t6d, t7b}
}

// CwndTrace summarises Fig. 7a: the congestion window of a three-hop
// flow with d = 0 (hidden-terminal losses) observed over an interval —
// a single traced-flow spec. examples/scenarios/fig7a_cwnd.json is the
// same spec as a file; -format json on it prints the trajectory itself
// (runs[0].flows[0].cwnd_trace).
func CwndTrace(o Opts) *Table {
	start := o.scale().dur(30 * sim.Second)
	window := o.scale().dur(100 * sim.Second)
	noRetry := scenario.Duration(0)
	run := o.run([]*scenario.Spec{{
		Name:     "fig7a",
		Topology: scenario.TopologySpec{Kind: scenario.TopoChain, Nodes: 4},
		Net:      scenario.NetSpec{RetryDelay: &noRetry},
		Flows: []scenario.FlowSpec{{
			From: scenario.NodeID(3), To: scenario.NodeID(0), Trace: true,
		}},
		Warmup:   scenario.Duration(start),
		Duration: scenario.Duration(window),
		Seeds:    []int64{7},
	}})[0].Runs[0]
	fl := run.Flows[0]
	trace := fl.CwndTrace

	maxCwnd := fl.WindowSegs * fl.MSS
	atMax := 0
	for _, p := range trace {
		if p.Cwnd >= maxCwnd {
			atMax++
		}
	}
	t := &Table{
		ID:      "fig7a",
		Title:   "cwnd behaviour, three hops, d=0 (summary; the series: -scenario examples/scenarios/fig7a_cwnd.json -format json)",
		Columns: []string{"Metric", "Value"},
	}
	t.AddRow("congestion events traced", di(len(trace)))
	if len(trace) > 0 {
		t.AddRow("samples at max window", pct(float64(atMax)/float64(len(trace))))
	}
	t.AddRow("timeouts", du(fl.Timeouts))
	t.AddRow("fast retransmissions", du(fl.FastRtx))
	t.Note("paper Fig. 7a: cwnd recovers to the (4-segment) maximum almost immediately after every loss — no sawtooth")
	return t
}

// HopSweep reproduces the §7.2 hop-count measurement at d = 40 ms and
// compares it with the B/min(h,3) radio-scheduling bound: one hops-axis
// sweep with an "end"-referenced sender. The paper's 4-hop outlier
// (which needed a 6-segment window to fill the pipe) is a per-cell
// override in the same grid, not a separate spec.
func HopSweep(o Opts) *Table {
	t := &Table{
		ID:      "hopsweep",
		Title:   "Goodput vs hop count (d = 40 ms)",
		Columns: []string{"Hops", "Goodput kb/s", "×1-hop", "Bound factor"},
	}
	warm, dur := o.scale().dur(15*sim.Second), o.scale().dur(90*sim.Second)
	res := o.run([]*scenario.Spec{{
		Name:     "hopsweep",
		Topology: scenario.TopologySpec{Kind: scenario.TopoChain},
		Flows:    []scenario.FlowSpec{{From: scenario.End(), To: scenario.NodeID(0)}},
		Sweep: &scenario.Sweep{
			Hops: []int{1, 2, 3, 4}, SeedStep: 1,
			Overrides: []scenario.Override{{
				When: scenario.OverrideWhen{"hops": "4"},
				Set:  scenario.OverrideSet{WindowSegs: 6},
			}},
		},
		Warmup:   scenario.Duration(warm),
		Duration: scenario.Duration(dur),
		Seeds:    o.seeds(201),
	}})
	var oneHop []float64
	for hops := 1; hops <= 4; hops++ {
		g := flowSeries(res[hops-1], 0, goodputOf)
		if hops == 1 {
			oneHop = g
		}
		// Pair seed index k of this hop count with seed index k of the
		// 1-hop cell. The cells run different channel realizations
		// (SeedStep offsets them), so a multi-seed ±σ on this column is
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

// Table9 measures fairness and efficiency for two simultaneous flows
// (Appendix A): one hop and three hops with the standard 4-segment
// window, three hops with a 7-segment window with and without RED/ECN
// at the relays, and — the ROADMAP's inter-variant fairness question —
// the same w=7 bottleneck with a paced BBR flow against NewReno. Each
// row is a declarative twin-leaf scenario run by the scenario
// subsystem, which computes the per-flow goodputs and the Jain index.
func Table9(o Opts) *Table {
	t := &Table{
		ID:      "table9",
		Title:   "Two simultaneous flows: fairness and efficiency",
		Columns: []string{"Scenario", "Flow A kb/s", "Flow B kb/s", "Jain index", "Aggregate kb/s"},
	}
	warm, dur := o.scale().dur(20*sim.Second), o.scale().dur(5*sim.Minute)
	mk := func(name string, pathHops, windowSegs int, red bool, seed int64, variantA, variantB string) *scenario.Spec {
		return &scenario.Spec{
			Name:     name,
			Topology: scenario.TopologySpec{Kind: scenario.TopoTwinLeaf, PathHops: pathHops},
			Net: scenario.NetSpec{
				WindowSegs: windowSegs,
				RED:        red, ECN: red, HopByHop: red,
			},
			Flows: []scenario.FlowSpec{
				{Label: "A", From: scenario.NodeID(pathHops), To: scenario.NodeID(0),
					Port: 80, Variant: variantA},
				{Label: "B", From: scenario.NodeID(pathHops + 1), To: scenario.NodeID(0),
					Port: 81, Variant: variantB},
			},
			Warmup:   scenario.Duration(warm),
			Duration: scenario.Duration(dur),
			Seeds:    o.seeds(seed),
		}
	}
	results := o.run([]*scenario.Spec{
		mk("1 hop, w=4", 1, 4, false, 300, "", ""),
		mk("3 hops, w=4", 3, 4, false, 301, "", ""),
		mk("3 hops, w=7", 3, 7, false, 302, "", ""),
		mk("3 hops, w=7, RED+ECN", 3, 7, true, 303, "", ""),
		mk("3 hops, w=7, paced BBR vs NewReno", 3, 7, false, 304, "bbr", "newreno"),
	})
	for _, sr := range results {
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
