package stack

import (
	"reflect"
	"testing"

	"tcplp/internal/mac"
	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
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
// retransmitted or reordered count; most windows are like that. They
// allocate nothing at all. A relay holds a datagram in its forwarding
// cache from its FRAG1 to its last fragment only, so the first relay of
// the chain holds at most the two datagrams a window of segments and
// ACKs crossing it can interleave.
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
			net.Eng.RunFor(60 * sim.Second) // every pool and MAC neighbour record exists
			if tc.nodes > 2 {
				if held := len(net.Nodes[1].fwdCache); held > 2 {
					t.Fatalf("relay 1 holds %d forwarding entries after the warm-up, want at most 2", held)
				}
			}

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
			if allocs != 0 {
				t.Fatalf("%d allocations over %d segments with nothing lost or retransmitted: something on the datagram path allocates again", allocs, segs)
			}
			if tc.nodes > 2 && net.Nodes[1].Stats().FragmentsFwd == 0 {
				t.Fatal("no fragment was relayed")
			}
			if tc.host && (net.Border().Stats().PacketsFwd == 0 || dst.Stats().PacketsDelivered == 0) {
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
		if n.layers != nil {
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

// TestRelayedFragmentsKeepTheirOrder pins what a relay's forwarding
// cache relies on to free an entry at the datagram's last fragment: each
// hop hands a datagram's frames on in order and drops the rest of one
// whose frame it failed to deliver, and the MAC stops the duplicates a
// lost ACK causes. So, on a lossy four-node bulk chain where the MAC
// retries, suppresses duplicates and drops frames, every FRAGN a relay
// receives comes after its datagram's FRAG1 and before its last fragment
// was forwarded, and is forwarded: none falls through to the relay's own
// reassembler.
func TestRelayedFragmentsKeepTheirOrder(t *testing.T) {
	opt := DefaultOptions()
	opt.PER = 0.3
	net := New(7, mesh.Chain(4, 10), opt)
	src, dst := net.Nodes[3], net.Nodes[0]
	dst.TCP().Listen(80, func(c *tcplp.Conn) {
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

	type key struct {
		src phy.Addr
		tag uint16
	}
	const (
		open  = 1 // FRAG1 seen
		ended = 2 // last fragment forwarded
	)
	var fragNs, lasts int
	for _, relay := range net.Nodes[1:3] {
		relay := relay
		state := map[key]int{}
		deliver := relay.Mac().OnReceive
		relay.Mac().OnReceive = func(f *phy.Frame) {
			kind := sixlowpan.Classify(f.Payload)
			fi, err := sixlowpan.ParseFragment(f.Payload)
			if kind != sixlowpan.KindFrag1 && kind != sixlowpan.KindFragN || err != nil {
				deliver(f)
				return
			}
			k := key{f.Src, fi.Tag}
			if kind == sixlowpan.KindFrag1 {
				state[k] = open
				deliver(f)
				return
			}
			fragNs++
			switch state[k] {
			case 0:
				t.Fatalf("t=%v: relay %d got a FRAGN of %v before its FRAG1", net.Eng.Now(), relay.ID, k)
			case ended:
				t.Fatalf("t=%v: relay %d got a FRAGN of %v after forwarding its last fragment", net.Eng.Now(), relay.ID, k)
			}
			fwd := relay.Stats().FragmentsFwd
			deliver(f)
			if relay.Stats().FragmentsFwd != fwd+1 {
				t.Fatalf("t=%v: relay %d did not forward a FRAGN of %v", net.Eng.Now(), relay.ID, k)
			}
			if fi.Offset+len(f.Payload)-fi.HeaderLen >= int(fi.DatagramSize) {
				state[k] = ended
				lasts++
			}
		}
	}
	net.Eng.RunFor(120 * sim.Second)

	var sum mac.Stats
	for _, n := range net.Nodes {
		s := n.MacStats()
		sum.Retries += s.Retries
		sum.Duplicates += s.Duplicates
		sum.DataDropped += s.DataDropped
	}
	t.Logf("relays got %d FRAGNs, %d of them last fragments; MAC retries %d, duplicates %d, drops %d",
		fragNs, lasts, sum.Retries, sum.Duplicates, sum.DataDropped)
	if lasts == 0 || sum.Retries == 0 || sum.Duplicates == 0 || sum.DataDropped == 0 {
		t.Fatal("the run no longer relays datagrams over a link that retries, duplicates and drops frames")
	}
	for _, relay := range net.Nodes[1:3] {
		if relay.reasm != nil {
			t.Errorf("relay %d reassembled something: a fragment fell through its forwarding cache", relay.ID)
		}
	}
}
