package app_test

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/coap"
	"tcplp/internal/gateway"
	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/netem"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

// TestReadingPathAllocs holds the path a reading takes above the stack
// to the rule TestDatagramPathAllocs holds the path below it to: after
// warm-up — every pool filled, every queue grown to its depth — a
// stretch of simulated time allocates nothing. Three paths, one per
// transport: sensor → TCP → gateway batch → WAN link on a star, sensor
// → CoAP CON → collector, and sensor → UDP over one hop (the CoAP
// server's dedup records reach their steady size only after a lifetime,
// which TestServerSteadyStateAllocs waits for). One device per path: a
// second sender adds collisions, and the burst behind a recovered loss
// now and then takes a pool past its high-water mark (a few objects in
// ten minutes, none of them per reading), which is allocs_k's business
// in the benchmark, not an exact zero's.
func TestReadingPathAllocs(t *testing.T) {
	const interval = 250 * sim.Millisecond
	sensor := func(node *stack.Node, tr app.Transport, queueCap int) {
		s := app.NewSensor(node, tr, queueCap)
		s.Interval = interval
		s.Start()
	}
	for _, tc := range []struct {
		name  string
		start func() (net *stack.Network, delivered func() uint64)
	}{
		{"tcp-gateway-wan", func() (*stack.Network, func() uint64) {
			net := stack.New(21, mesh.Star(2, 10), stack.DefaultOptions())
			gw := gateway.New(net.Border(), gateway.Config{
				WAN: netem.WANConfig{BandwidthKbps: 64, Delay: 300 * sim.Millisecond, Loss: 0.05},
			}, 23)
			for _, node := range net.Nodes[1:] {
				tr := app.NewTCPTransportConfig(node, net.FlowTCPConfig(""), net.Border().Addr, gateway.DefaultTCPPort)
				sensor(node, tr, app.TCPQueueCap)
				gw.Register(node.Addr, nil, nil, nil)
			}
			return net, func() uint64 { return gw.Stats.ReadingsOut }
		}},
		{"coap-con", func() (*stack.Network, func() uint64) {
			net := stack.New(22, mesh.Chain(2, 10), stack.DefaultOptions())
			var got uint64
			deliver := func(uint32) { got++ }
			srv := coap.NewServer(net.Eng, net.Nodes[0].UDP(), coap.DefaultPort)
			srv.OnPost = func(_ ip6.Addr, payload []byte) coap.Code {
				app.ForEachReading(payload, deliver)
				return coap.CodeChanged
			}
			sensor(net.Nodes[1], app.NewCoAPTransportPort(net.Nodes[1], net.Nodes[0].Addr, coap.DefaultPort, true, 410), app.CoAPQueueCap)
			return net, func() uint64 { return got }
		}},
		{"udp", func() (*stack.Network, func() uint64) {
			net := stack.New(23, mesh.Chain(2, 10), stack.DefaultOptions())
			var got uint64
			app.ListenReadingUDP(net.Nodes[0], 9000, func(uint32) { got++ })
			sensor(net.Nodes[1], app.NewUDPTransport(net.Nodes[1], net.Nodes[0].Addr, 9000, 410), app.CoAPQueueCap)
			return net, func() uint64 { return got }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, delivered := tc.start()
			net.Eng.RunFor(2 * sim.Minute)
			before := delivered()
			// AllocsPerRun(1, f) runs f twice and reports the second.
			n := testing.AllocsPerRun(1, func() { net.Eng.RunFor(30 * sim.Second) })
			readings := (delivered() - before) / 2
			t.Logf("%v allocations over %d delivered readings", n, readings)
			if readings < 50 {
				t.Fatalf("only %d readings delivered in the window: the test no longer measures the path", readings)
			}
			if n != 0 {
				t.Fatalf("%v allocations over %d readings: something on the reading path allocates again", n, readings)
			}
		})
	}
}

// TestReadingStreamChunks feeds one byte stream of readings in random
// chunk sizes: every reading is delivered once, in order, however the
// chunks cut them, and Reset drops a partial reading so the next byte
// starts a new stream.
func TestReadingStreamChunks(t *testing.T) {
	const n = 200
	stream := make([]byte, 0, n*app.ReadingSize)
	for seq := uint32(1); seq <= n; seq++ {
		r := make([]byte, app.ReadingSize)
		binary.BigEndian.PutUint32(r, seq)
		stream = append(stream, r...)
	}
	rng := rand.New(rand.NewSource(1))
	var got []uint32
	rs := app.ReadingStream{Deliver: func(seq uint32) { got = append(got, seq) }}
	feed := func(b []byte) {
		for len(b) > 0 {
			k := 1 + rng.Intn(3*app.ReadingSize)
			if k > len(b) {
				k = len(b)
			}
			rs.Feed(b[:k])
			b = b[k:]
		}
	}
	feed(stream)
	for i, seq := range got {
		if seq != uint32(i+1) {
			t.Fatalf("reading %d delivered as %d", i+1, seq)
		}
	}
	if len(got) != n {
		t.Fatalf("delivered %d of %d readings", len(got), n)
	}
	rs.Feed(stream[:app.ReadingSize/2]) // a reconnect cuts this reading short
	rs.Reset()
	got = got[:0]
	feed(stream[:3*app.ReadingSize])
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("after Reset: %v, want [1 2 3]", got)
	}
}
