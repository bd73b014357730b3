package stack

import (
	"testing"

	"tcplp/internal/energy"
	"tcplp/internal/mac"
	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp"
)

// TestWakeOnFirstAddressedFrame pins who wakes a dormant node and that
// the frame which did it is handled as if the MAC had always been there
// ("Dormancy" in the package comment).
func TestWakeOnFirstAddressedFrame(t *testing.T) {
	awake := func(n *Node) bool { return n.layers != nil }

	t.Run("relay", func(t *testing.T) {
		// A TCP transfer across a 3-node chain: the endpoints wake when
		// their sockets open, the relay on the first fragment it is sent.
		net := New(3, mesh.Chain(3, 10), DefaultOptions())
		src, relay, dst := net.Nodes[2], net.Nodes[1], net.Nodes[0]
		received := 0
		dst.TCP().Listen(80, func(c *tcplp.Conn) {
			buf := make([]byte, 4096)
			c.OnReadable = func() {
				for n := c.Read(buf); n > 0; n = c.Read(buf) {
					received += n
				}
			}
		})
		client := src.TCP().Connect(dst.Addr, 80)
		client.OnEstablished = func() { client.Write(make([]byte, 1000)) }
		if !awake(src) || !awake(dst) || awake(relay) {
			t.Fatalf("after opening sockets: src %v dst %v relay %v awake, want true true false",
				awake(src), awake(dst), awake(relay))
		}
		for !awake(relay) && net.Eng.Step() {
		}
		// Woken from inside the reception of the SYN's frame: the first
		// frame its radio decoded, already forwarded, its ACK on air.
		if got := relay.Radio.FramesReceived(); got != 1 {
			t.Fatalf("relay woke after its radio decoded %d frames, want on the first", got)
		}
		if relay.Stats().FragmentsFwd != 1 || !relay.Radio.Transmitting() {
			t.Fatalf("the waking frame was not handled: forwarded %d, radio %v",
				relay.Stats().FragmentsFwd, relay.Radio.State())
		}
		net.Eng.RunFor(2 * sim.Millisecond) // the ACK's turnaround and air time
		if st := src.MacStats(); st.DataSent != 1 || st.Retries != 0 || relay.MacStats().AcksSent != 1 {
			t.Fatalf("the waking frame was not ACKed at once: sender %+v, relay %+v", st, relay.MacStats())
		}
		net.Eng.RunFor(10 * sim.Second)
		if received != 1000 || relay.MacStats().Duplicates != 0 {
			t.Fatalf("delivered %d of 1000 bytes through the woken relay (%+v)", received, relay.MacStats())
		}
	})

	t.Run("broadcast", func(t *testing.T) {
		net := New(3, mesh.Chain(3, 10), DefaultOptions())
		net.Nodes[1].Mac().SendJID(phy.BroadcastAddr, []byte{0xff}, 0, nil)
		net.Eng.Run()
		for _, n := range []*Node{net.Nodes[0], net.Nodes[2]} {
			if !awake(n) || !cpuCharged(n, energy.FrameRxCost) {
				t.Fatalf("node %d: awake %v, CPU duty cycle %v: a broadcast wakes every hearer and reaches its onFrame once",
					n.ID, awake(n), n.CPU.DutyCycle())
			}
		}
	})

	t.Run("promiscuous", func(t *testing.T) {
		// A raw (filter off) dormant radio hands up whatever it decodes,
		// so the first frame wakes the node; its new MAC then discards
		// the frame, which is for somebody else.
		net := New(3, mesh.Chain(3, 10), DefaultOptions())
		bystander := net.Nodes[0]
		bystander.Radio.SetAddressFilter(false)
		var status mac.TxStatus = -1
		net.Nodes[1].Mac().SendJID(net.Nodes[2].LinkAddr(), []byte{0xff}, 0, func(s mac.TxStatus) { status = s })
		for !awake(bystander) && net.Eng.Step() {
		}
		if got := bystander.Radio.FramesReceived(); got != 1 {
			t.Fatalf("promiscuous node woke after %d decoded frames, want on the first", got)
		}
		net.Eng.Run()
		if st := bystander.MacStats(); !cpuCharged(bystander, 0) || st.AcksSent != 0 {
			t.Fatalf("bystander accepted a frame for node 2: CPU duty cycle %v, %+v", bystander.CPU.DutyCycle(), st)
		}
		if status != mac.TxOK || !cpuCharged(net.Nodes[2], energy.FrameRxCost) {
			t.Fatalf("the frame itself: status %v, receiver CPU duty cycle %v", status, net.Nodes[2].CPU.DutyCycle())
		}
	})

	t.Run("mid-reception", func(t *testing.T) {
		// An accessor wakes the receiver while its radio is locked onto
		// the frame: the reception completes into the new MAC.
		net := New(3, mesh.Chain(2, 10), DefaultOptions())
		src, dst := net.Nodes[1], net.Nodes[0]
		var status mac.TxStatus = -1
		src.Mac().SendJID(dst.LinkAddr(), make([]byte, 60), 0, func(s mac.TxStatus) { status = s })
		for dst.Radio.State() != phy.StateRx && net.Eng.Step() {
		}
		if awake(dst) {
			t.Fatal("receiver awake before it was handed anything")
		}
		dst.Mac()
		if dst.Radio.State() != phy.StateRx {
			t.Fatalf("waking mid-reception left the radio in %v", dst.Radio.State())
		}
		net.Eng.Run()
		if dst.Radio.FramesReceived() != 1 || dst.Radio.ReceptionsDropped() != 0 || !cpuCharged(dst, energy.FrameRxCost) {
			t.Fatalf("receiver: %d frames decoded, %d dropped, CPU duty cycle %v, want 1, 0 and one frame's worth",
				dst.Radio.FramesReceived(), dst.Radio.ReceptionsDropped(), dst.CPU.DutyCycle())
		}
		if st := src.MacStats(); status != mac.TxOK || st.Retries != 0 || dst.MacStats().AcksSent != 1 || dst.MacStats().Duplicates != 0 {
			t.Fatalf("status %v, sender %+v, receiver %+v", status, st, dst.MacStats())
		}
	})
}

// cpuCharged reports whether n's CPU meter has charged exactly d since the
// run began: its duty cycle is then d over the time elapsed, computed the
// same way.
func cpuCharged(n *Node, d sim.Duration) bool {
	return n.CPU.DutyCycle() == float64(d)/float64(n.Eng().Now())
}

// TestMakeSleepyLeafUnrouted: a leaf the topology cuts off from the
// border router is an error naming it, and nothing was woken for it.
func TestMakeSleepyLeafUnrouted(t *testing.T) {
	islands := mesh.Chain(3, 10)
	islands.TxRange, islands.SenseRange = 5, 5
	net := New(1, islands, DefaultOptions())
	sc, err := net.MakeSleepyLeaf(2)
	if sc != nil || err == nil || err.Error() != "stack: leaf 2 has no route to the border router (node 0)" {
		t.Fatalf("MakeSleepyLeaf on an island = %v, %v", sc, err)
	}
	if net.Nodes[2].layers != nil || net.Nodes[2].Sleep != nil {
		t.Fatal("the failed call left the leaf half converted")
	}
	if _, err := New(1, mesh.Chain(3, 10), DefaultOptions()).MakeSleepyLeaf(2); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAllocsPerNode holds what New allocates per node: the radio's
// firstFrame method value. Everything else a node owns out of New — its
// Node, its Radio, the channel's tables, its entries in the routes' arrays
// and cell grid — is a share of a slab, and everything above the radio
// waits for wake.
func TestBuildAllocsPerNode(t *testing.T) {
	const n = 1000
	topo := mesh.RandomGeometric(n, 16, 1)
	opt := DefaultOptions()
	var sink *Network
	perNode := testing.AllocsPerRun(5, func() { sink = New(1, topo, opt) }) / n
	_ = sink
	const maxBuildAllocsPerNode = 2.1 // measured 1.022, 2.025 under -race
	t.Logf("stack.New: %.3f allocations per node", perNode)
	if perNode > maxBuildAllocsPerNode {
		t.Fatalf("stack.New costs %.3f allocations per node, want <= %.2f: something per-node is eager again",
			perNode, maxBuildAllocsPerNode)
	}
}

// TestWakeAllocs pins what waking a node allocates: the layers object,
// the Mac, the three method values the MAC hands the engine and the
// radio (its step timer's runStep, OnTxDone, OnReceive), and onFrame,
// frameDone and SendPacket. The MAC's steps share one timer, so a frame's
// steps cost no callback each.
func TestWakeAllocs(t *testing.T) {
	const n, wakes = 200, 100
	net := New(1, mesh.RandomGeometric(n, 16, 1), DefaultOptions())
	next := 0
	perWake := testing.AllocsPerRun(wakes, func() {
		net.Nodes[next].wake()
		next++
	})
	t.Logf("wake: %.2f allocations per node", perWake)
	if perWake != 8 {
		t.Fatalf("waking a node costs %.2f allocations, want 8", perWake)
	}
}
