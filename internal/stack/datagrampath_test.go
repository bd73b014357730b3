package stack

import (
	"reflect"
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp"
)

// TestDatagramPathAllocs: a warm bulk TCP connection costs no
// allocations per segment + ACK, end to end — Conn.sendData →
// Stack.sendSegment → Node.route → AppendFragments → (mac, phy) →
// Node.onFrame → tryForwardFragment / Reassembler.Input → Node.deliver
// → Stack.Input → Conn.input and the ACK back. One hop; three hops, so
// relays exercise tryForwardFragment and the forwarding cache; and one
// hop plus the border ↔ host wire, so the wire slots and the border's
// reassemble-then-bridge path are on it.
//
// Loss recovery is not steady state (the SACK scoreboard and the
// receiver's SACK ranges still allocate), so the run is cut into windows
// and only those in which no datagram was lost and nothing was
// retransmitted or reordered count; most windows are like that. Without
// relays they allocate nothing at all. A relay's forwarding cache is a Go
// map under steady insert / expire churn, which the runtime rehashes in
// place every few hundred datagrams (two objects, at a moment that
// depends on the process's hash seed), so there the bound is one
// allocation per fifty segments: anything per datagram is fifty times
// over it.
func TestDatagramPathAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		host  bool
	}{
		{"chain2", 2, false},
		{"chain4", 4, false},
		{"wire", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := New(1, mesh.Chain(tc.nodes, 10), DefaultOptions())
			src, dst := net.Nodes[tc.nodes-1], net.Nodes[0]
			if tc.host {
				dst = net.AttachHost()
			}
			var server *tcplp.Conn
			dst.TCP().Listen(80, func(c *tcplp.Conn) {
				server = c
				buf := make([]byte, 4096)
				c.OnReadable = func() {
					for c.Read(buf) > 0 {
					}
				}
			})
			client := src.TCP().Connect(dst.Addr, 80)
			data := make([]byte, 1024)
			pump := func() {
				for {
					if n, err := client.Write(data); err != nil || n == 0 {
						return
					}
				}
			}
			client.OnEstablished, client.OnWritable = pump, pump
			net.Eng.RunFor(60 * sim.Second) // every pool, map and MAC dedup key exists

			disturbed := func() uint64 {
				return net.TotalLossEvents() + client.Stats.Retransmits + client.Stats.DupAcksIn +
					server.Stats.OutOfOrderSegs + server.Stats.DupSegs
			}
			const windows = 20
			var quiet, segs, allocs uint64
			for w := 0; w < windows; w++ {
				before, sent := disturbed(), client.Stats.SegsSent
				// AllocsPerRun(1, f) runs f twice and reports the second.
				n := testing.AllocsPerRun(1, func() { net.Eng.RunFor(3 * sim.Second) })
				if disturbed() != before {
					continue
				}
				quiet++
				segs += (client.Stats.SegsSent - sent) / 2
				allocs += uint64(n)
			}
			t.Logf("%d of %d windows undisturbed: %d allocations over %d segments", quiet, windows, allocs, segs)
			if quiet < windows/2 || segs < 5*windows {
				t.Fatalf("only %d of %d windows undisturbed, %d segments: the test no longer measures steady state", quiet, windows, segs)
			}
			if budget := segs / 50; allocs > budget || (tc.nodes == 2 && allocs != 0) {
				t.Fatalf("%d allocations over %d segments with nothing lost or retransmitted: something on the datagram path allocates again", allocs, segs)
			}
			if tc.nodes > 2 && net.Nodes[1].Stats.FragmentsFwd == 0 {
				t.Fatal("no fragment was relayed")
			}
			if tc.host && (net.Border().Stats.PacketsFwd == 0 || dst.Stats.PacketsDelivered == 0) {
				t.Fatal("nothing crossed the wire")
			}
		})
	}
}

// TestNodeBuffersLazy: building a network gives no node a MAC or a
// transport (TestWakeOnFirstAddressedFrame), and waking a node gives it
// neither a reassembler (and so no arena or packet), a fragment pool, a
// queued-datagram item or frame list, a forwarding cache nor a TCP
// transmit / receive slot: those appear on the node's first datagram, so
// a relay woken by one frame pays for what it relays, not for sockets it
// never opens. (TestIdleNodeFootprint bounds the bytes.)
func TestNodeBuffersLazy(t *testing.T) {
	net := New(1, mesh.RandomGeometric(1000, 16, 1), DefaultOptions())
	for _, n := range net.Nodes {
		if n.mac != nil || n.tcp != nil || n.udp != nil || n.red != nil {
			t.Fatalf("node %d is awake straight out of New", n.ID)
		}
		// Other packages' pools are unexported: look, don't touch.
		tcp := reflect.ValueOf(n.TCP()).Elem()
		if n.reasm != nil || !reflect.ValueOf(n.frag).IsZero() ||
			n.outFree != nil || n.outQ != nil || n.fwdCache != nil ||
			!tcp.FieldByName("txFree").IsNil() || !tcp.FieldByName("rxFree").IsNil() {
			t.Fatalf("node %d holds datagram-path buffers before its first datagram", n.ID)
		}
	}
}
