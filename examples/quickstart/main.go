// Quickstart: two motes one wireless hop apart transfer a bulk TCP
// stream for 30 simulated seconds, demonstrating the library's core
// loop: build a network, open a TCPlp connection, move bytes, read the
// counters.
package main

import (
	"fmt"

	"tcplp/internal/app"
	"tcplp/internal/mesh"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

func main() {
	// A two-node chain: node 0 will receive, node 1 will send. The
	// default options are the paper's standard configuration: MSS of
	// five 802.15.4 frames, four-segment buffers, every TCP feature on.
	net := stack.New(42, mesh.Chain(2, 10), stack.DefaultOptions())

	cfg := net.FlowTCPConfig("")
	sink := app.ListenSinkConfig(net.Nodes[0], 80, cfg)
	src := app.StartBulkConfig(net.Nodes[1], cfg, net.Nodes[0].Addr, 80)

	// Let the connection establish and ramp, then measure 30 s.
	net.Eng.RunFor(5 * sim.Second)
	sink.Mark()
	net.Eng.RunFor(30 * sim.Second)

	info := stack.SegmentSizing(net.Opt.SegFrames, true)
	fmt.Printf("TCPlp quickstart: one hop, MSS %d B (%d frames), window %d segments\n",
		info.MSS, net.Opt.SegFrames, net.Opt.WindowSegs)
	fmt.Printf("  goodput:         %.1f kb/s (paper: 63-75 kb/s)\n", sink.GoodputKbps())
	fmt.Printf("  bytes delivered: %d\n", sink.BytesSinceMark())
	st := src.Conn.Stats
	fmt.Printf("  segments sent:   %d (retransmits %d, timeouts %d)\n",
		st.SegsSent, st.Retransmits, st.Timeouts)
	fmt.Printf("  srtt:            %v\n", src.Conn.SRTT())
	fmt.Printf("  frames on air:   %d\n", net.TotalFramesSent())
}
