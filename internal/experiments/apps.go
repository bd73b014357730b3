package experiments

import (
	"fmt"

	"tcplp/internal/scenario"
	"tcplp/internal/sim"
)

// The §9 application study — anemometer telemetry over TCPlp, CoAP,
// CoCoA, and unreliable transports — runs entirely through the
// scenario subsystem's protocol flows: each table row is a
// declarative office-topology spec with sleepy sensor nodes and one
// anemometer flow per sensor, fanned out by the parallel runner. The
// renderers below reproduce the bespoke harness's pooled arithmetic
// bit-for-bit (pinned by testdata/equiv_fig8..table8).

// SensorNodes are the anemometer stand-ins in the office topology
// (paper: nodes 12-15, 1-based with node 1 the border router).
var SensorNodes = []int{11, 12, 13, 14}

// anemProto names one transport configuration of the §9 comparison.
type anemProto struct {
	protocol    string // scenario FlowSpec protocol
	rto         string // coap RTO policy
	confirmable bool
}

var (
	protoTCPlp   = anemProto{protocol: "tcp"}
	protoCoAP    = anemProto{protocol: "coap", confirmable: true}
	protoCoCoA   = anemProto{protocol: "coap", rto: "cocoa", confirmable: true}
	protoCoAPNon = anemProto{protocol: "coap"}
)

// anemSpec builds one §9 office run: the given sensor nodes become
// duty-cycled leaves (4 min sleep, 100 ms fast poll) each driving an
// anemometer flow to the cloud host over the chosen transport.
func anemSpec(name string, p anemProto, batch bool, nodes []int,
	injectedLoss float64, interference bool, warm, dur sim.Duration, seeds []int64) *scenario.Spec {

	fast := scenario.Duration(100 * sim.Millisecond)
	s := &scenario.Spec{
		Name:     name,
		Topology: scenario.TopologySpec{Kind: scenario.TopoOffice},
		Net: scenario.NetSpec{
			InjectedLoss: injectedLoss,
		},
		Warmup:   scenario.Duration(warm),
		Duration: scenario.Duration(dur),
		Seeds:    seeds,
	}
	if interference {
		s.Net.Interference = 1.0
	}
	for _, id := range nodes {
		f := fast
		s.Nodes = append(s.Nodes, scenario.NodeSpec{
			ID: id, Sleepy: true,
			SleepInterval: scenario.Duration(4 * sim.Minute),
			FastInterval:  &f,
		})
		fs := scenario.FlowSpec{
			From:     scenario.NodeID(id),
			To:       scenario.Host(),
			Protocol: p.protocol,
			Pattern:  scenario.PatternAnemometer,
		}
		if p.protocol == "coap" {
			c := p.confirmable
			fs.Confirmable = &c
			fs.RTO = p.rto
		}
		if batch {
			fs.Batch = 64
		}
		s.Flows = append(s.Flows, fs)
	}
	return s
}

// anemSweep is anemSpec with the transport left to a protocols sweep
// axis: one spec covers every transport of a §9 comparison, cell i's
// seeds offset by i·seedStep so the grid reproduces the hand-built
// specs' per-condition seeding exactly.
func anemSweep(name string, protocols []string, seedStep int64, batch bool, nodes []int,
	injectedLoss float64, interference bool, warm, dur sim.Duration, seeds []int64) *scenario.Spec {
	s := anemSpec(name, anemProto{}, batch, nodes, injectedLoss, interference, warm, dur, seeds)
	s.Sweep = &scenario.Sweep{Protocols: protocols, SeedStep: seedStep}
	return s
}

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

// Fig8 compares batching vs per-reading transmission for CoAP, CoCoA,
// and TCPlp in favorable (night) conditions: radio and CPU duty cycles.
func Fig8(o Opts) *Table {
	scale := o.scale()
	t := &Table{
		ID:      "fig8",
		Title:   "Effect of batching on power (favorable conditions)",
		Columns: []string{"Protocol", "Batching", "Reliability", "Radio DC", "CPU DC"},
	}
	warm, dur := scale.dur(2*sim.Minute), scale.dur(30*sim.Minute)
	// The hand-built loop (CoAP, CoCoA, TCPlp) × (no batch, batch)
	// assigned seeds 401..406 in column-interleaved order; one
	// protocols-axis sweep per batch setting with SeedStep 2 lands every
	// cell on exactly the seed it had.
	protos := []string{"coap", "cocoa", "tcp"}
	names := []string{"CoAP", "CoCoA", "TCPlp"}
	res := o.run([]*scenario.Spec{
		anemSweep("fig8-nobatch", protos, 2, false, SensorNodes, 0, false, warm, dur, o.seeds(401)),
		anemSweep("fig8-batch", protos, 2, true, SensorNodes, 0, false, warm, dur, o.seeds(402)),
	})
	for pi, name := range names {
		for bi, label := range []string{"no", "yes"} {
			sr := res[bi*len(protos)+pi]
			t.AddRow(name, label,
				o.cell(runSeries(sr, anemRel), pct),
				o.cell(runSeries(sr, anemRadioDC), pct),
				o.cell(runSeries(sr, anemCPUDC), pct))
		}
	}
	t.Note("paper Fig. 8: all three protocols ≈100%% reliable and comparable; batching cuts both duty cycles sharply")
	return t
}

// Fig9 sweeps injected packet loss at the border router and reports
// reliability, retransmissions, and duty cycles for the three reliable
// protocols.
func Fig9(o Opts) []*Table {
	scale := o.scale()
	rel := &Table{ID: "fig9a", Title: "Reliability vs injected loss",
		Columns: []string{"Loss", "TCPlp", "CoCoA", "CoAP"}}
	rtx := &Table{ID: "fig9b", Title: "Transport retransmissions per 10 min vs injected loss",
		Columns: []string{"Loss", "TCPlp", "TCPlp RTOs", "CoCoA", "CoAP"}}
	radio := &Table{ID: "fig9c", Title: "Radio duty cycle vs injected loss",
		Columns: []string{"Loss", "TCPlp", "CoCoA", "CoAP"}}
	cpu := &Table{ID: "fig9d", Title: "CPU duty cycle vs injected loss",
		Columns: []string{"Loss", "TCPlp", "CoCoA", "CoAP"}}
	warm, dur := scale.dur(2*sim.Minute), scale.dur(20*sim.Minute)
	losses := []float64{0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.21}
	// The hand-built loop assigned seeds 501.. in (loss, protocol) order;
	// one protocols-axis sweep per loss level with SeedStep 1 reproduces
	// that assignment.
	protos := []string{"tcp", "cocoa", "coap"}
	names := []string{"TCPlp", "CoCoA", "CoAP"}
	var specs []*scenario.Spec
	for li, loss := range losses {
		specs = append(specs, anemSweep(
			fmt.Sprintf("fig9-loss%.0f", loss*100),
			protos, 1, true, SensorNodes, loss, false, warm, dur,
			o.seeds(501+int64(li)*int64(len(protos)))))
	}
	res := o.run(specs)
	rtxOf := func(fl scenario.FlowResult) uint64 { return fl.Retransmits }
	rtoOf := func(fl scenario.FlowResult) uint64 { return fl.Timeouts }
	for li, loss := range losses {
		byProto := map[string]*scenario.SpecResult{}
		for pi, name := range names {
			byProto[name] = res[li*len(protos)+pi]
		}
		l := pct(loss)
		relOf := func(sr *scenario.SpecResult) string { return o.cell(runSeries(sr, anemRel), pct) }
		rel.AddRow(l, relOf(byProto["TCPlp"]), relOf(byProto["CoCoA"]), relOf(byProto["CoAP"]))
		per10 := func(sr *scenario.SpecResult, count func(scenario.FlowResult) uint64) string {
			return o.cell(runSeries(sr, func(r scenario.Result) float64 {
				return anemPer10(r, dur, count)
			}), f1)
		}
		rtx.AddRow(l, per10(byProto["TCPlp"], rtxOf), per10(byProto["TCPlp"], rtoOf),
			per10(byProto["CoCoA"], rtxOf), per10(byProto["CoAP"], rtxOf))
		radioOf := func(sr *scenario.SpecResult) string { return o.cell(runSeries(sr, anemRadioDC), pct) }
		radio.AddRow(l, radioOf(byProto["TCPlp"]), radioOf(byProto["CoCoA"]), radioOf(byProto["CoAP"]))
		cpuOf := func(sr *scenario.SpecResult) string { return o.cell(runSeries(sr, anemCPUDC), pct) }
		cpu.AddRow(l, cpuOf(byProto["TCPlp"]), cpuOf(byProto["CoCoA"]), cpuOf(byProto["CoAP"]))
	}
	rel.Note("paper Fig. 9a: TCP and CoAP near 100%% through 15%% loss; CoCoA collapses from RTT inflation")
	return []*Table{rel, rtx, radio, cpu}
}

// Fig10 runs TCPlp and CoAP for a full day under diurnal interference
// and reports hourly radio duty cycles, split across the sensor nodes
// exactly as the paper does (§9.5) so both see the same conditions.
func Fig10(o Opts) *Table {
	scale := o.scale()
	t := &Table{
		ID:      "fig10",
		Title:   "Hourly radio duty cycle over a day with diurnal interference",
		Columns: []string{"Hour", "TCPlp DC", "CoAP DC"},
	}
	dur := scale.dur(24 * sim.Hour)
	hours := int(dur / sim.Hour)
	if hours < 1 {
		hours = 1
		dur = sim.Hour
	}
	mk := func(name string, p anemProto, nodes []int) *scenario.Spec {
		s := anemSpec(name, p, true, nodes, 0, true, 0, dur, o.seeds(600))
		s.DCSample = scenario.Duration(sim.Hour)
		return s
	}
	res := o.run([]*scenario.Spec{
		mk("fig10-tcplp", protoTCPlp, []int{11, 13}),
		mk("fig10-coap", protoCoAP, []int{12, 14}),
	})
	dcSeries := func(sr *scenario.SpecResult, h int) []float64 {
		out := make([]float64, 0, len(sr.Runs))
		for _, run := range sr.Runs {
			if h < len(run.DCSamples) {
				out = append(out, run.DCSamples[h])
			}
		}
		return out
	}
	n := len(res[0].Runs[0].DCSamples)
	if m := len(res[1].Runs[0].DCSamples); m < n {
		n = m
	}
	for h := 0; h < n; h++ {
		t.AddRow(di(h), o.cell(dcSeries(res[0], h), pct), o.cell(dcSeries(res[1], h), pct))
	}
	t.Note("paper Fig. 10: CoAP cheaper at night; TCPlp comparable or better during working-hours interference")
	return t
}

// Table8 summarizes full-day performance including the unreliable
// (nonconfirmable) baseline of §9.6.
func Table8(o Opts) *Table {
	scale := o.scale()
	t := &Table{
		ID:      "table8",
		Title:   "Full-day performance with interference",
		Columns: []string{"Protocol", "Reliability", "Radio DC", "CPU DC"},
	}
	warm, dur := scale.dur(10*sim.Minute), scale.dur(24*sim.Hour)
	rows := []struct {
		name  string
		proto anemProto
		batch bool
	}{
		{"TCPlp", protoTCPlp, true},
		{"CoAP", protoCoAP, true},
		{"Unreliable, no batch", protoCoAPNon, false},
		{"Unreliable, batch", protoCoAPNon, true},
	}
	var specs []*scenario.Spec
	for i, r := range rows {
		specs = append(specs, anemSpec(
			fmt.Sprintf("table8-%d", i),
			r.proto, r.batch, SensorNodes, 0, true, warm, dur, o.seeds(int64(700+i))))
	}
	res := o.run(specs)
	for i, r := range rows {
		t.AddRow(r.name,
			o.cell(runSeries(res[i], anemRel), pct),
			o.cell(runSeries(res[i], anemRadioDC), pct),
			o.cell(runSeries(res[i], anemCPUDC), pct))
	}
	t.Note("paper Table 8: reliability costs ≈3x duty cycle vs the unreliable baseline; TCPlp 99.3%%, CoAP 99.5%%")
	return t
}
