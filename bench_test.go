// Package benchmarks regenerates every table and figure of the paper's
// evaluation as a Go benchmark (one bench per table/figure, as indexed in
// DESIGN.md), plus ablation benches for the design choices: the in-place
// reassembly queue vs an mbuf-chain queue, the zero-copy vs copying send
// buffer, and each Table 1 TCP feature toggled off.
//
// Throughput numbers are reported as custom metrics (kb/s etc.); ns/op
// measures simulation wall cost, not protocol performance.
package benchmarks

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/experiments"
	"tcplp/internal/mesh"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
	"tcplp/internal/tcplp/cc"
)

// benchScale keeps per-iteration simulated time modest; the cmd runs the
// full-scale versions.
var benchScale = experiments.Opts{Scale: 0.1}

// cellF extracts a numeric cell from a table for metric reporting.
func cellF(tab *experiments.Table, row, col int) float64 {
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		return 0
	}
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, _ := strconv.ParseFloat(s, 64)
	return v
}

// ---- one bench per table/figure ----

func BenchmarkTable1Features(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table1(); len(tab.Rows) != 8 {
			b.Fatal("feature matrix incomplete")
		}
	}
}

func BenchmarkTable34Memory(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Table34()
	}
	b.ReportMetric(cellF(tab, 0, 1), "connstate_bytes")
}

func BenchmarkTable6HeaderOverhead(b *testing.B) {
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.Table6()
	}
	b.ReportMetric(cellF(tab, 4, 1), "first_frame_hdr_bytes")
}

func BenchmarkFig4MSS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig4(benchScale)
		b.ReportMetric(cellF(tab, 3, 2), "kbps_5frames_up")
		b.ReportMetric(cellF(tab, 0, 2), "kbps_2frames_up")
	}
}

func BenchmarkFig5Window(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig5(benchScale)
		b.ReportMetric(cellF(tab, 3, 2), "kbps_w4")
		b.ReportMetric(cellF(tab, 0, 2), "kbps_w1")
	}
}

func BenchmarkTable7Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Table7(benchScale)
		b.ReportMetric(cellF(tab, 0, 3), "kbps_uip_1hop")
		b.ReportMetric(cellF(tab, len(tab.Rows)-1, 3), "kbps_tcplp_1hop")
	}
}

func BenchmarkFig6RetryDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig6(benchScale)
		t6b := tabs[1]
		b.ReportMetric(cellF(t6b, 0, 1), "segloss_pct_d0_3hop")
		b.ReportMetric(cellF(t6b, 5, 1), "segloss_pct_d40_3hop")
		b.ReportMetric(cellF(t6b, 5, 2), "kbps_d40_3hop")
	}
}

func BenchmarkFig7Recovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace, _ := experiments.CwndTrace(benchScale)
		b.ReportMetric(float64(len(trace)), "cwnd_events")
	}
}

func BenchmarkHopSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.HopSweep(benchScale)
		b.ReportMetric(cellF(tab, 0, 1), "kbps_1hop")
		b.ReportMetric(cellF(tab, 2, 1), "kbps_3hop")
	}
}

func BenchmarkTable9Fairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Table9(experiments.Opts{Scale: 0.05})
		b.ReportMetric(cellF(tab, 0, 3), "jain_1hop_w4")
		b.ReportMetric(cellF(tab, 3, 3), "jain_3hop_w7_red")
	}
}

func BenchmarkFig8Batching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig8(experiments.Opts{Scale: 0.08})
		b.ReportMetric(cellF(tab, 4, 3), "radio_dc_pct_tcp_nobatch")
		b.ReportMetric(cellF(tab, 5, 3), "radio_dc_pct_tcp_batch")
	}
}

func BenchmarkFig9Loss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tabs := experiments.Fig9(experiments.Opts{Scale: 0.05})
		rel := tabs[0]
		last := len(rel.Rows) - 1
		b.ReportMetric(cellF(rel, last, 1), "rel_pct_tcp_21loss")
		b.ReportMetric(cellF(rel, last, 2), "rel_pct_cocoa_21loss")
	}
}

func BenchmarkFig10Diurnal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig10(experiments.Opts{Scale: 0.05})
		if len(tab.Rows) == 0 {
			b.Fatal("no hourly rows")
		}
		b.ReportMetric(cellF(tab, 0, 1), "radio_dc_pct_tcp_h0")
	}
}

func BenchmarkTable8FullDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Table8(experiments.Opts{Scale: 0.02})
		b.ReportMetric(cellF(tab, 0, 1), "rel_pct_tcplp")
		b.ReportMetric(cellF(tab, 0, 2), "radio_dc_pct_tcplp")
	}
}

func BenchmarkFig12Sleep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig12(experiments.Opts{Scale: 0.1})
		b.ReportMetric(cellF(tab, 0, 1), "kbps_up_20ms")
		b.ReportMetric(cellF(tab, len(tab.Rows)-1, 1), "kbps_up_2s")
	}
}

func BenchmarkFig13RTTDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig13(experiments.Opts{Scale: 0.1})
		b.ReportMetric(cellF(tab, 0, 2), "rtt_ms_up_median")
	}
}

func BenchmarkCCVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.CCVariants(experiments.Opts{Scale: 0.05})
		// Rows: 4 loss rates × cc.Variants(); report the clean channel
		// and the 6% frame-loss point per variant.
		last := len(tab.Rows) - len(cc.Variants())
		b.ReportMetric(cellF(tab, 0, 2), "kbps_newreno_clean")
		b.ReportMetric(cellF(tab, last, 2), "kbps_newreno_6loss")
		b.ReportMetric(cellF(tab, last+1, 2), "kbps_cubic_6loss")
		b.ReportMetric(cellF(tab, last+2, 2), "kbps_westwood_6loss")
		b.ReportMetric(cellF(tab, last+3, 2), "kbps_bbr_6loss")
	}
}

func BenchmarkPacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Pacing(experiments.Opts{Scale: 0.1})
		// Rows: {hidden-terminal, duty-cycled} × {newreno, bbr}.
		b.ReportMetric(cellF(tab, 0, 2), "kbps_newreno_hidden")
		b.ReportMetric(cellF(tab, 1, 2), "kbps_bbr_hidden")
		b.ReportMetric(cellF(tab, 2, 2), "kbps_newreno_dutycycle")
		b.ReportMetric(cellF(tab, 3, 2), "kbps_bbr_dutycycle")
	}
}

func BenchmarkGatewayCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.GatewayCapacity(experiments.Opts{Scale: 0.05})
		// Rows: devices {2, 4, 8, 16}; report end-to-end delivery and
		// credit fairness inside capacity and far past it (NewReno).
		b.ReportMetric(cellF(tab, 0, 1), "e2e_pct_2dev")
		b.ReportMetric(cellF(tab, 3, 1), "e2e_pct_16dev")
		b.ReportMetric(cellF(tab, 3, 2), "jain_16dev")
	}
}

func BenchmarkFig14Adaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig14(experiments.Opts{Scale: 0.2})
		b.ReportMetric(cellF(tab, 0, 1), "kbps_up_adaptive")
		b.ReportMetric(cellF(tab, 0, 3), "idle_dc_pct")
	}
}

// ---- ablations (DESIGN.md §4) ----

// lossyOneHopGoodput measures one-hop goodput under moderate frame loss
// with a custom TCP config — the feature-ablation harness.
func lossyOneHopGoodput(b *testing.B, mutate func(*tcplp.Config)) float64 {
	opt := stack.DefaultOptions()
	opt.PER = 0.05
	base := stack.DerivedTCPConfig(opt, opt.TCP)
	mutate(&base)
	opt.ExplicitTCP = true
	opt.TCP = base
	net := stack.New(123, mesh.Chain(2, 10), opt)
	sink := app.ListenSink(net.Nodes[0], 80)
	src := app.StartBulk(net.Nodes[1], net.Nodes[0].Addr, 80)
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
				kbps = lossyOneHopGoodput(b, tc.mutate)
			}
			b.ReportMetric(kbps, "kbps")
		})
	}
}

func BenchmarkAblationReassembly(b *testing.B) {
	run := func(b *testing.B, q tcplp.ReceiveQueue) {
		rng := rand.New(rand.NewSource(1))
		data := make([]byte, 4096)
		rng.Read(data)
		buf := make([]byte, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Deliver two segments out of order, then the gap filler.
			q.Write(440, data[440:880])
			q.Write(880, data[880:1320])
			q.Write(0, data[:440])
			for q.Readable() > 0 {
				q.Read(buf)
			}
		}
	}
	b.Run("in-place", func(b *testing.B) { run(b, tcplp.NewRecvBuffer(2048)) })
	b.Run("mbuf-chain", func(b *testing.B) { run(b, tcplp.NewChainRecvBuffer(2048)) })
}

func BenchmarkAblationSendBuffer(b *testing.B) {
	run := func(b *testing.B, sb tcplp.SendBuffer) {
		payload := make([]byte, 440)
		out := make([]byte, 440)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb.Write(payload)
			sb.ReadAt(out, 0)
			sb.Discard(440)
		}
	}
	b.Run("copy", func(b *testing.B) { run(b, tcplp.NewCopySendBuffer(4096)) })
	b.Run("zero-copy", func(b *testing.B) { run(b, tcplp.NewZeroCopySendBuffer(4096)) })
}

func BenchmarkAblationForwardingMode(b *testing.B) {
	run := func(b *testing.B, mode stack.ForwardingMode) {
		var kbps float64
		for i := 0; i < b.N; i++ {
			opt := stack.DefaultOptions()
			opt.Mode = mode
			net := stack.New(5, mesh.Chain(4, 10), opt)
			sink := app.ListenSink(net.Nodes[0], 80)
			src := app.StartBulk(net.Nodes[3], net.Nodes[0].Addr, 80)
			net.Eng.RunFor(5 * sim.Second)
			sink.Mark()
			net.Eng.RunFor(20 * sim.Second)
			kbps = sink.GoodputKbps()
			src.Stop()
		}
		b.ReportMetric(kbps, "kbps_3hop")
	}
	b.Run("fragment-forwarding", func(b *testing.B) { run(b, stack.FragmentForwarding) })
	b.Run("hop-by-hop", func(b *testing.B) { run(b, stack.HopByHopReassembly) })
}
