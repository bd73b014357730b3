// Package benchmarks regenerates every table and figure of the paper's
// evaluation as a Go benchmark — one table-driven bench over
// experiments.Registry — plus ablation benches for the design choices:
// each Table 1 TCP feature toggled off, and fragment forwarding against
// hop-by-hop reassembly. (The buffer-design ablation — in-place
// reassembly vs an mbuf chain, copying vs zero-copy send buffer — lives
// beside the buffers, in internal/tcplp/ablation_test.go.)
//
// Throughput numbers are reported as custom metrics (kb/s etc.); ns/op
// measures simulation wall cost, not protocol performance. Numbers of
// record come from benchmark/ (see its README); `make bench-smoke` runs
// one iteration of everything here so bench-only code cannot rot.
package benchmarks

import (
	"strconv"
	"strings"
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/experiments"
	"tcplp/internal/mesh"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
	"tcplp/internal/tcplp/cc"
)

// cell names one table cell to report as a benchmark metric. A negative
// row counts from the table's end (-1 is the last row).
type cell struct {
	tab, row, col int
	metric        string
}

// expBench is how one registry experiment runs as a benchmark: a scale
// that keeps per-iteration simulated time modest (the cmd runs the
// full-scale versions) and the cells worth watching.
type expBench struct {
	scale float64
	cells []cell
}

// expBenches covers experiments.Registry id by id; BenchmarkExperiments
// fails on a registry id missing here, so a new experiment cannot be
// forgotten.
var expBenches = map[string]expBench{
	"table1":  {},
	"table2":  {},
	"table34": {cells: []cell{{0, 0, 1, "connstate_bytes"}}},
	"table5":  {cells: []cell{{0, 4, 3, "airtime_ms_127B"}}},
	"table6":  {cells: []cell{{0, 4, 1, "first_frame_hdr_bytes"}}},
	"fig4":    {0.1, []cell{{0, 3, 2, "kbps_5frames_up"}, {0, 0, 2, "kbps_2frames_up"}}},
	"fig5":    {0.1, []cell{{0, 3, 2, "kbps_w4"}, {0, 0, 2, "kbps_w1"}}},
	"table7":  {0.1, []cell{{0, 0, 3, "kbps_uip_1hop"}, {0, -1, 3, "kbps_tcplp_1hop"}}},
	// Tables: fig6a, fig6b, fig6c, fig6d, fig7b.
	"fig6": {0.1, []cell{{1, 0, 1, "segloss_pct_d0_3hop"}, {1, 5, 1, "segloss_pct_d40_3hop"},
		{1, 5, 2, "kbps_d40_3hop"}}},
	"fig7a":    {0.1, []cell{{0, 0, 1, "cwnd_events"}}},
	"hopsweep": {0.1, []cell{{0, 0, 1, "kbps_1hop"}, {0, 2, 1, "kbps_3hop"}}},
	"model":    {cells: []cell{{0, 3, 3, "eq2_kbps_1hop_6loss"}}},
	"table9":   {0.05, []cell{{0, 0, 3, "jain_1hop_w4"}, {0, 3, 3, "jain_3hop_w7_red"}}},
	"fig8": {0.08, []cell{{0, 4, 3, "radio_dc_pct_tcp_nobatch"},
		{0, 5, 3, "radio_dc_pct_tcp_batch"}}},
	// Tables: reliability, then the per-protocol cost panels.
	"fig9":          {0.05, []cell{{0, -1, 1, "rel_pct_tcp_21loss"}, {0, -1, 2, "rel_pct_cocoa_21loss"}}},
	"rto_inflation": {0.05, []cell{{0, -2, 5, "rto_over_rtt_cocoa_21loss"}}},
	"fig10":         {0.05, []cell{{0, 0, 1, "radio_dc_pct_tcp_h0"}}},
	"table8":        {0.02, []cell{{0, 0, 1, "rel_pct_tcplp"}, {0, 0, 2, "radio_dc_pct_tcplp"}}},
	"fig12":         {0.1, []cell{{0, 0, 1, "kbps_up_20ms"}, {0, -1, 1, "kbps_up_2s"}}},
	"fig13":         {0.1, []cell{{0, 0, 2, "rtt_ms_up_median"}}},
	"fig14":         {0.2, []cell{{0, 0, 1, "kbps_up_adaptive"}, {0, 0, 3, "idle_dc_pct"}}},
	// Rows: 4 loss rates × cc.Variants(); the clean channel, then the 6%
	// frame-loss point per variant.
	"ccvariants": {0.05, []cell{{0, 0, 2, "kbps_newreno_clean"},
		{0, -len(cc.Variants()), 2, "kbps_newreno_6loss"},
		{0, 1 - len(cc.Variants()), 2, "kbps_cubic_6loss"},
		{0, 2 - len(cc.Variants()), 2, "kbps_westwood_6loss"},
		{0, 3 - len(cc.Variants()), 2, "kbps_bbr_6loss"}}},
	// Rows: {hidden-terminal, duty-cycled} × {newreno, bbr}.
	"pacing": {0.1, []cell{{0, 0, 2, "kbps_newreno_hidden"}, {0, 1, 2, "kbps_bbr_hidden"},
		{0, 2, 2, "kbps_newreno_dutycycle"}, {0, 3, 2, "kbps_bbr_dutycycle"}}},
	// Rows: devices {2, 4, 8, 16}: end-to-end delivery and credit
	// fairness inside capacity and far past it (NewReno).
	"gateway_capacity": {0.05, []cell{{0, 0, 1, "e2e_pct_2dev"}, {0, 3, 1, "e2e_pct_16dev"},
		{0, 3, 2, "jain_16dev"}}},
	"citysweep": {0.05, []cell{{0, -2, 3, "agg_kbps_1000nodes_newreno"}}},
}

// cellF extracts a numeric cell (the mean of a "mean ± σ" cell) from a
// table; a cell that is not there, or not a number, fails the bench.
func cellF(b *testing.B, tabs []*experiments.Table, c cell) float64 {
	b.Helper()
	if c.tab >= len(tabs) {
		b.Fatalf("%s: no table %d", c.metric, c.tab)
	}
	tab, row := tabs[c.tab], c.row
	if row < 0 {
		row += len(tab.Rows)
	}
	if row < 0 || row >= len(tab.Rows) || c.col >= len(tab.Rows[row]) {
		b.Fatalf("%s: %s has no cell (%d,%d)", c.metric, tab.ID, c.row, c.col)
	}
	s, _, _ := strings.Cut(tab.Rows[row][c.col], " ± ")
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "%"), " ms"), 64)
	if err != nil {
		b.Fatalf("%s: %s cell (%d,%d) = %q is not a number", c.metric, tab.ID, c.row, c.col, s)
	}
	return v
}

func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry {
		eb, ok := expBenches[e.ID]
		if !ok {
			b.Fatalf("experiment %q has no entry in expBenches", e.ID)
		}
		b.Run(e.ID, func(b *testing.B) {
			var tabs []*experiments.Table
			for i := 0; i < b.N; i++ {
				var err error
				if tabs, err = e.Run(experiments.Opts{Rewrite: scenario.Rewrite{Scale: eb.scale}}); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range eb.cells {
				b.ReportMetric(cellF(b, tabs, c), c.metric)
			}
		})
	}
}

// ---- ablations ----

// lossyOneHopGoodput measures one-hop goodput under moderate frame loss
// with a mutated TCP config on both ends of the flow — the
// feature-ablation harness.
func lossyOneHopGoodput(mutate func(*tcplp.Config)) float64 {
	opt := stack.DefaultOptions()
	opt.PER = 0.05
	net := stack.New(123, mesh.Chain(2, 10), opt)
	cfg := net.FlowTCPConfig("", 0)
	mutate(&cfg)
	sink := app.ListenSinkConfig(net.Nodes[0], 80, cfg)
	src := app.StartBulkConfig(net.Nodes[1], cfg, net.Nodes[0].Addr, 80)
	net.Eng.RunFor(5 * sim.Second)
	sink.Mark()
	net.Eng.RunFor(30 * sim.Second)
	src.Stop()
	return sink.GoodputKbps()
}

func BenchmarkAblationFeatures(b *testing.B) {
	cases := []struct {
		name   string
		mutate func(*tcplp.Config)
	}{
		{"full", func(c *tcplp.Config) {}},
		{"no-sack", func(c *tcplp.Config) { c.UseSACK = false }},
		{"no-timestamps", func(c *tcplp.Config) { c.UseTimestamps = false }},
		{"no-delack", func(c *tcplp.Config) { c.UseDelayedAcks = false }},
		{"window-1seg", func(c *tcplp.Config) {
			c.SendBufSize = c.MSS
			c.RecvBufSize = c.MSS
		}},
		{"cc-cubic", func(c *tcplp.Config) { c.Variant = cc.Cubic }},
		{"cc-westwood", func(c *tcplp.Config) { c.Variant = cc.Westwood }},
		{"cc-bbr-paced", func(c *tcplp.Config) { c.Variant = cc.Bbr }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var kbps float64
			for i := 0; i < b.N; i++ {
				kbps = lossyOneHopGoodput(tc.mutate)
			}
			b.ReportMetric(kbps, "kbps")
		})
	}
}

// BenchmarkAblationForwardingMode is a two-cell spec: the same three-hop
// bulk flow with relays forwarding fragments (the default) and
// reassembling hop by hop.
func BenchmarkAblationForwardingMode(b *testing.B) {
	mk := func(name string, hopByHop bool) *scenario.Spec {
		return &scenario.Spec{
			Name:     name,
			Topology: scenario.TopologySpec{Kind: scenario.TopoChain, Nodes: 4},
			Net:      scenario.NetSpec{HopByHop: hopByHop},
			Flows:    []scenario.FlowSpec{{From: scenario.NodeID(3), To: scenario.NodeID(0)}},
			Warmup:   scenario.Duration(5 * sim.Second),
			Duration: scenario.Duration(20 * sim.Second),
			Seeds:    []int64{5},
		}
	}
	specs := []*scenario.Spec{mk("fragment-forwarding", false), mk("hop-by-hop", true)}
	var res []*scenario.SpecResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = (&scenario.Runner{}).RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res[0].Runs[0].Flows[0].GoodputKbps, "kbps_3hop_fragment_forwarding")
	b.ReportMetric(res[1].Runs[0].Flows[0].GoodputKbps, "kbps_3hop_hop_by_hop")
}
