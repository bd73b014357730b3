package stack

import (
	"reflect"
	"sync"
	"testing"
	"unsafe"

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
// transport (TestWakeOnFirstAddressedFrame) and leaves the network's
// packet pools (fragment buffers, queued-datagram items, MAC jobs) empty.
// Waking a node gives it neither a reassembler (and so no arena or
// packet), queue storage, a forwarding cache nor a TCP transmit / receive
// slot, and no pool of its own: its fragmenter and its MAC draw on the
// network's, which waking leaves empty. Those appear on the first
// datagram, so a relay woken by one frame pays for what it relays, not
// for sockets it never opens. (TestIdleNodeFootprint bounds the bytes.)
func TestNodeBuffersLazy(t *testing.T) {
	net := New(1, mesh.RandomGeometric(1000, 16, 1), DefaultOptions())
	empty := func() bool {
		return reflect.ValueOf(net.fragBufs).IsZero() && net.outFree == nil &&
			reflect.ValueOf(net.macJobs).IsZero() && net.Pools() == PoolCounts{}
	}
	if !empty() {
		t.Fatal("the network's pools hold something out of New")
	}
	for _, n := range net.Nodes {
		if n.layers != nil {
			t.Fatalf("node %d is awake straight out of New", n.ID)
		}
		// Other packages' pools are unexported: look, don't touch.
		tcp := reflect.ValueOf(n.TCP()).Elem()
		m := reflect.ValueOf(n.Mac()).Elem()
		if n.reasm != nil || n.qHead != nil || n.qTail != nil || n.qLen != 0 || n.fwdCache != nil ||
			!tcp.FieldByName("txFree").IsNil() || !tcp.FieldByName("rxFree").IsNil() ||
			!m.FieldByName("qHead").IsNil() {
			t.Fatalf("node %d holds datagram-path buffers before its first datagram", n.ID)
		}
		if !drawsOnPools(n, net) {
			t.Fatalf("node %d does not draw on the network's pools", n.ID)
		}
	}
	if !empty() {
		t.Fatal("waking every node filled the network's pools")
	}
}

// drawsOnPools reports whether the awake node n's fragmenter and MAC take
// their buffers and jobs from net's pools.
func drawsOnPools(n *Node, net *Network) bool {
	jobs := reflect.ValueOf(n.Mac()).Elem().FieldByName("jobs").UnsafePointer()
	return n.frag.Pool == &net.fragBufs && jobs == unsafe.Pointer(&net.macJobs)
}

// TestNetworksShareNoPool: a network's packet pools are its own. Two
// networks run at once, each on its own goroutine as the scenario
// Runner's workers run theirs, end as the same network run alone does,
// and every node of each draws on its own network's pools. Under -race
// (CI's test step) a pool the two shared would be a reported race.
func TestNetworksShareNoPool(t *testing.T) {
	type outcome struct {
		received int
		events   uint64
		pools    PoolCounts
	}
	build := func() *Network {
		opt := DefaultOptions()
		opt.PER = 0.1 // link retries and drops: the pools churn
		return New(5, mesh.Chain(4, 10), opt)
	}
	run := func(net *Network) outcome {
		var o outcome
		net.Nodes[0].TCP().Listen(80, func(c *tcplp.Conn) {
			buf := make([]byte, 4096)
			c.OnReadable = func() {
				for n := c.Read(buf); n > 0; n = c.Read(buf) {
					o.received += n
				}
			}
		})
		client := net.Nodes[3].TCP().Connect(net.Nodes[0].Addr, 80)
		data := make([]byte, 1024)
		pump := func() {
			for n, err := client.Write(data); err == nil && n > 0; n, err = client.Write(data) {
			}
		}
		client.OnEstablished, client.OnWritable = pump, pump
		net.Eng.RunFor(20 * sim.Second)
		o.events, o.pools = net.Eng.Processed(), net.Pools()
		return o
	}
	alone := run(build())
	if alone.received == 0 || alone.pools.FragBufs == 0 {
		t.Fatalf("the transfer moved nothing: %+v", alone)
	}
	nets := [2]*Network{build(), build()}
	var got [2]outcome
	var wg sync.WaitGroup
	for i := range nets {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(nets[i])
		}()
	}
	wg.Wait()
	for i, net := range nets {
		if got[i] != alone {
			t.Fatalf("network %d run beside another: %+v, alone %+v", i, got[i], alone)
		}
		for _, n := range net.Nodes {
			if !drawsOnPools(n, net) {
				t.Fatalf("node %d of network %d draws on another network's pools", n.ID, i)
			}
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
