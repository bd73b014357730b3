package stack

import (
	"bytes"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp"
)

// bulkOverMesh pushes a bulk TCP flow from node src to node dst for dur
// and returns goodput in kb/s plus the client connection.
func bulkOverMesh(t *testing.T, net *Network, src, dst int, dur sim.Duration) (float64, *tcplp.Conn) {
	t.Helper()
	received := 0
	net.Nodes[dst].TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := net.Nodes[src].TCP().Connect(ip6.AddrFromID(dst), 80)
	data := make([]byte, 1024)
	pump := func() {
		for {
			n, err := client.Write(data)
			if err != nil || n == 0 {
				return
			}
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(dur))
	if received == 0 {
		t.Fatalf("no bytes delivered (client %v, stats %+v)", client.State(), client.Stats)
	}
	return float64(received) * 8 / dur.Seconds() / 1000, client
}

func TestOneHopGoodputMatchesPaper(t *testing.T) {
	// §6.3-§6.4: two motes over one hop achieve 63-75 kb/s with MSS of
	// five frames; the analytical ceiling is ≈82 kb/s. Accept 45-85 to
	// allow for modelling differences while requiring the right regime.
	net := New(1, mesh.Chain(2, 10), DefaultOptions())
	kbps, client := bulkOverMesh(t, net, 1, 0, 60*sim.Second)
	t.Logf("one-hop goodput = %.1f kb/s (retransmits=%d timeouts=%d)",
		kbps, client.Stats.Retransmits, client.Stats.Timeouts)
	if kbps < 45 || kbps > 85 {
		t.Fatalf("one-hop goodput = %.1f kb/s, want 45-85 (paper: 63-75)", kbps)
	}
}

func TestMultihopGoodputDegrades(t *testing.T) {
	// §7.2: goodput over h hops ≈ B/min(h,3): ≈1/2 at two hops, ≈1/3 at
	// three or more.
	goodput := map[int]float64{}
	for _, hops := range []int{1, 2, 3} {
		net := New(2, mesh.Chain(hops+1, 10), DefaultOptions())
		kbps, _ := bulkOverMesh(t, net, hops, 0, 60*sim.Second)
		goodput[hops] = kbps
		t.Logf("%d hops: %.1f kb/s", hops, kbps)
	}
	if !(goodput[1] > goodput[2] && goodput[2] > goodput[3]) {
		t.Fatalf("goodput not monotonic in hops: %v", goodput)
	}
	r2 := goodput[2] / goodput[1]
	r3 := goodput[3] / goodput[1]
	if r2 < 0.33 || r2 > 0.65 {
		t.Fatalf("two-hop ratio = %.2f, want ≈0.5", r2)
	}
	if r3 < 0.2 || r3 > 0.5 {
		t.Fatalf("three-hop ratio = %.2f, want ≈1/3", r3)
	}
}

func TestTransferByteExactOverMesh(t *testing.T) {
	// Byte-exactness across fragmentation, forwarding, and reassembly.
	net := New(3, mesh.Chain(4, 10), DefaultOptions())
	payload := make([]byte, 20_000)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	var got bytes.Buffer
	done := false
	net.Nodes[0].TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				got.Write(buf[:n])
			}
			if c.EOF() {
				c.Close()
				done = true
			}
		}
	})
	client := net.Nodes[3].TCP().Connect(ip6.AddrFromID(0), 80)
	sent := 0
	pump := func() {
		for sent < len(payload) {
			n, _ := client.Write(payload[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
		client.Close()
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(5 * sim.Minute))
	if !done {
		t.Fatalf("incomplete: sent=%d got=%d state=%v", sent, got.Len(), client.State())
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatal("payload corrupted across the mesh")
	}
}

func TestHopByHopModeEquivalent(t *testing.T) {
	opt := DefaultOptions()
	opt.RED = true // RED relays reassemble every packet (Appendix A)
	net := New(4, mesh.Chain(4, 10), opt)
	kbps, _ := bulkOverMesh(t, net, 3, 0, 60*sim.Second)
	t.Logf("three-hop goodput over whole-packet relays = %.1f kb/s", kbps)
	if kbps < 8 {
		t.Fatalf("whole-packet relaying broken: %.1f kb/s", kbps)
	}
}

func TestUplinkThroughBorderToHost(t *testing.T) {
	// The §9 data path: mesh node → border router → wired host.
	net := New(5, mesh.Chain(3, 10), DefaultOptions())
	host := net.AttachHost()
	received := 0
	host.TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := net.Nodes[2].TCP().Connect(host.Addr, 80)
	data := make([]byte, 512)
	pump := func() {
		for {
			n, _ := client.Write(data)
			if n == 0 {
				return
			}
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(30 * sim.Second))
	if received < 10_000 {
		t.Fatalf("host received only %d bytes (client %v)", received, client.State())
	}
}

func TestDownlinkFromHost(t *testing.T) {
	net := New(6, mesh.Chain(3, 10), DefaultOptions())
	host := net.AttachHost()
	received := 0
	net.Nodes[2].TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := host.TCP().Connect(ip6.AddrFromID(2), 80)
	data := make([]byte, 512)
	pump := func() {
		for {
			n, _ := client.Write(data)
			if n == 0 {
				return
			}
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(30 * sim.Second))
	if received < 10_000 {
		t.Fatalf("mote received only %d bytes over downlink (client %v)", received, client.State())
	}
}

func TestBorderLossInjection(t *testing.T) {
	net := New(7, mesh.Chain(2, 10), DefaultOptions())
	host := net.AttachHost()
	drops := 0
	net.Border().DropFilter = func(pkt *ip6.Packet) bool {
		drops++
		return drops%4 == 0 // 25% loss
	}
	received := 0
	host.TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := net.Nodes[1].TCP().Connect(host.Addr, 80)
	data := make([]byte, 512)
	pump := func() {
		for {
			n, _ := client.Write(data)
			if n == 0 {
				return
			}
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(60 * sim.Second))
	if received == 0 {
		t.Fatal("no delivery under 25% injected loss")
	}
	if client.Stats.Retransmits == 0 {
		t.Fatal("no retransmissions despite injected loss")
	}
	if net.Border().Stats().BorderDrops == 0 {
		t.Fatal("drop filter never fired")
	}
}

func TestSleepyLeafTCPUplink(t *testing.T) {
	// A duty-cycled leaf sends data upstream; the §9.2 fast-poll hook
	// must let TCP ACKs reach it quickly despite its radio being off.
	net := New(8, mesh.Chain(2, 10), DefaultOptions())
	sc, err := net.MakeSleepyLeaf(1)
	if err != nil {
		t.Fatal(err)
	}
	sc.SleepInterval = 4 * sim.Minute
	sc.Start()
	received := 0
	net.Nodes[0].TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := net.Nodes[1].TCP().Connect(ip6.AddrFromID(0), 80)
	payload := make([]byte, 2000)
	sent := 0
	pump := func() {
		for sent < len(payload) {
			n, _ := client.Write(payload[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(30 * sim.Second))
	if received != 2000 {
		t.Fatalf("leaf uplink delivered %d of 2000 (polls=%d)", received, sc.Polls)
	}
	// The leaf radio must still be duty cycled, not always-on.
	if dc := net.Nodes[1].Radio.DutyCycle(); dc > 0.5 {
		t.Fatalf("leaf duty cycle = %.2f — radio effectively always on", dc)
	}
}

func TestSleepyLeafDownlink(t *testing.T) {
	net := New(9, mesh.Chain(2, 10), DefaultOptions())
	sc, err := net.MakeSleepyLeaf(1)
	if err != nil {
		t.Fatal(err)
	}
	sc.SleepInterval = 2 * sim.Second
	sc.Start()
	received := 0
	net.Nodes[1].TCP().Listen(80, func(c *tcplp.Conn) {
		buf := make([]byte, 4096)
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := net.Nodes[0].TCP().Connect(ip6.AddrFromID(1), 80)
	sent := 0
	payload := make([]byte, 3000)
	pump := func() {
		for sent < len(payload) {
			n, _ := client.Write(payload[sent:])
			if n == 0 {
				return
			}
			sent += n
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	net.Eng.RunUntil(sim.Time(2 * sim.Minute))
	if received != 3000 {
		t.Fatalf("downlink to sleepy leaf delivered %d of 3000", received)
	}
}

func TestUDPAcrossMesh(t *testing.T) {
	net := New(10, mesh.Chain(4, 10), DefaultOptions())
	var got []byte
	net.Nodes[0].UDP().Bind(5683, func(src ip6.Addr, srcPort uint16, payload []byte) {
		got = append(got, payload...) // the handler's slice is the reassembler's after the call
	})
	net.Nodes[3].UDP().Send(ip6.AddrFromID(0), 5683, 40001, []byte("coap-bound datagram"))
	net.Eng.RunUntil(sim.Time(5 * sim.Second))
	if string(got) != "coap-bound datagram" {
		t.Fatalf("udp payload = %q", got)
	}
}

func TestUDPLargeDatagramFragmented(t *testing.T) {
	net := New(11, mesh.Chain(3, 10), DefaultOptions())
	payload := make([]byte, 400)
	for i := range payload {
		payload[i] = byte(i)
	}
	var got []byte
	net.Nodes[0].UDP().Bind(5683, func(src ip6.Addr, srcPort uint16, p []byte) { got = append(got, p...) })
	net.Nodes[2].UDP().Send(ip6.AddrFromID(0), 5683, 40001, payload)
	net.Eng.RunUntil(sim.Time(5 * sim.Second))
	if !bytes.Equal(got, payload) {
		t.Fatalf("fragmented UDP mismatch: %d bytes", len(got))
	}
}

func TestSegmentSizingMatchesPaper(t *testing.T) {
	info := SegmentSizing(5, true)
	// §6.1: five-frame segments carry ≈408-462 B; we land in that band.
	if info.MSS < 400 || info.MSS > 470 {
		t.Fatalf("five-frame MSS = %d, want ≈400-470", info.MSS)
	}
	if SegmentSizing(1, true).MSS >= SegmentSizing(2, true).MSS {
		t.Fatal("MSS not increasing in frames")
	}
}

func TestOfficeTopologyProperties(t *testing.T) {
	topo := mesh.Office()
	routes := topo.Routes()
	// §9.2: a 3-to-5 hop topology for the anemometer nodes (11-14).
	for _, id := range []int{11, 12, 13, 14} {
		h := routes.Hops(id, 0)
		if h < 3 || h > 5 {
			t.Fatalf("node %d is %d hops from the border, want 3-5", id, h)
		}
	}
	// Everything is connected.
	for i := 1; i < topo.N(); i++ {
		if routes.Hops(i, 0) < 0 {
			t.Fatalf("node %d unreachable", i)
		}
	}
}

func TestRoutesChain(t *testing.T) {
	topo := mesh.Chain(5, 10)
	routes := topo.Routes()
	if h := routes.Hops(4, 0); h != 4 {
		t.Fatalf("chain hops = %d", h)
	}
	nh, ok := routes.NextHop(4, 0)
	if !ok || nh != 3 {
		t.Fatalf("next hop = %d %v", nh, ok)
	}
	p, ok := routes.NextHop(2, 0)
	if !ok || p != 1 {
		t.Fatalf("parent = %d %v", p, ok)
	}
}
