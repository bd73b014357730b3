package gateway_test

import (
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/gateway"
	"tcplp/internal/mesh"
	"tcplp/internal/netem"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

// starNet builds an n-node star (node 0 = border router = gateway host)
// and installs a gateway with the given table/WAN shape.
func starNet(seed int64, n int, cfg gateway.Config) (*stack.Network, *gateway.Gateway) {
	net := stack.New(seed, mesh.Star(n, 10), stack.DefaultOptions())
	return net, gateway.New(net.Border(), cfg, seed+2)
}

// startTCPSensor points one device's anemometer stream at the gateway's
// TCP terminator.
func startTCPSensor(net *stack.Network, id int, interval sim.Duration) *app.Sensor {
	node := net.Nodes[id]
	tr := app.NewTCPTransportConfig(node, net.FlowTCPConfig(""), net.Border().Addr, gateway.DefaultTCPPort)
	s := app.NewSensor(node, tr, app.TCPQueueCap)
	s.Interval = interval
	s.Start()
	return s
}

// startCoAPSensor points one device's anemometer stream at the
// gateway's CoAP terminator.
func startCoAPSensor(net *stack.Network, id int, interval sim.Duration) *app.Sensor {
	node := net.Nodes[id]
	tr := app.NewCoAPTransportPort(node, net.Border().Addr, gateway.DefaultCoAPPort, true, 410)
	s := app.NewSensor(node, tr, app.CoAPQueueCap)
	s.Interval = interval
	s.Start()
	return s
}

func TestGatewayTCPEndToEnd(t *testing.T) {
	net, gw := starNet(11, 3, gateway.Config{
		WAN: netem.WANConfig{BandwidthKbps: 100, Delay: 20 * sim.Millisecond},
	})
	var gwCount, e2eCount, lostCount int
	sink := gw.Register(net.Nodes[1].Addr,
		func(uint32) { gwCount++ },
		func(uint32) { e2eCount++ },
		func(n int) { lostCount += n })
	startTCPSensor(net, 1, 200*sim.Millisecond)
	startTCPSensor(net, 2, 200*sim.Millisecond) // unregistered: proxies, unmeasured
	net.Eng.RunFor(30 * sim.Second)

	if gw.Stats.Accepted != 2 || gw.Active() != 2 {
		t.Fatalf("accepted=%d active=%d, want 2/2", gw.Stats.Accepted, gw.Active())
	}
	if gw.Stats.ReadingsIn == 0 || gw.Stats.ReadingsOut == 0 {
		t.Fatalf("no readings proxied: %+v", gw.Stats)
	}
	if e2eCount == 0 {
		t.Fatal("registered device never credited at the cloud side")
	}
	if e2eCount+lostCount > gwCount {
		t.Fatalf("credits %d + losses %d exceed gateway deliveries %d",
			e2eCount, lostCount, gwCount)
	}
	// The per-source sink counts exactly the credited payload bytes.
	if sink.Received != e2eCount*app.ReadingSize {
		t.Fatalf("sink bytes = %d, want %d credited readings x %d",
			sink.Received, e2eCount, app.ReadingSize)
	}
	// A lossless WAN loses nothing.
	if lostCount != 0 || gw.Stats.ReadingsLost != 0 {
		t.Fatalf("losses on a lossless WAN: hook=%d stats=%d", lostCount, gw.Stats.ReadingsLost)
	}
}

func TestGatewayConnectionTableEviction(t *testing.T) {
	const devices, cap = 6, 2
	net, gw := starNet(12, devices+1, gateway.Config{
		MaxConns: cap,
		WAN:      netem.WANConfig{BandwidthKbps: 100},
	})
	for id := 1; id <= devices; id++ {
		startTCPSensor(net, id, 500*sim.Millisecond)
	}
	net.Eng.RunFor(20 * sim.Second)

	if gw.Active() > cap {
		t.Fatalf("active = %d exceeds MaxConns %d", gw.Active(), cap)
	}
	if gw.Stats.Accepted < uint64(devices) {
		t.Fatalf("accepted = %d, want at least %d", gw.Stats.Accepted, devices)
	}
	// Admitting 6 devices through a 2-slot table forces evictions.
	if gw.Stats.Evicted < devices-cap {
		t.Fatalf("evicted = %d, want >= %d", gw.Stats.Evicted, devices-cap)
	}
	// Survivors still proxy after the churn.
	if gw.Stats.ReadingsIn == 0 {
		t.Fatal("no readings parsed through the churning table")
	}
}

func TestGatewayCoAPReuse(t *testing.T) {
	net, gw := starNet(13, 2, gateway.Config{
		WAN: netem.WANConfig{BandwidthKbps: 100},
	})
	var e2eCount int
	gw.Register(net.Nodes[1].Addr, nil, func(uint32) { e2eCount++ }, nil)
	startCoAPSensor(net, 1, 200*sim.Millisecond)
	net.Eng.RunFor(30 * sim.Second)

	if gw.Stats.Posts < 2 {
		t.Fatalf("posts = %d, want a steady POST stream", gw.Stats.Posts)
	}
	// One device: the first POST creates its entry, every later arrival
	// finds it live.
	if gw.Active() != 1 {
		t.Fatalf("active = %d, want 1", gw.Active())
	}
	if gw.Stats.Reused != gw.Stats.Posts-1 {
		t.Fatalf("reused = %d with %d posts, want posts-1", gw.Stats.Reused, gw.Stats.Posts)
	}
	if e2eCount == 0 {
		t.Fatal("CoAP readings never credited end to end")
	}
}

func TestGatewayWANLossAccounted(t *testing.T) {
	net, gw := starNet(15, 2, gateway.Config{
		WAN: netem.WANConfig{BandwidthKbps: 100, Loss: 0.5},
	})
	var gwCount, e2eCount, lostCount int
	gw.Register(net.Nodes[1].Addr,
		func(uint32) { gwCount++ },
		func(uint32) { e2eCount++ },
		func(n int) { lostCount += n })
	startTCPSensor(net, 1, 100*sim.Millisecond)
	net.Eng.RunFor(60 * sim.Second)

	if e2eCount == 0 || lostCount == 0 {
		t.Fatalf("p=0.5 WAN: credited=%d lost=%d, want both nonzero", e2eCount, lostCount)
	}
	if e2eCount+lostCount > gwCount {
		t.Fatalf("credits %d + losses %d exceed gateway deliveries %d",
			e2eCount, lostCount, gwCount)
	}
	if gw.Stats.ReadingsLost != uint64(lostCount) {
		t.Fatalf("stats losses %d != hook losses %d", gw.Stats.ReadingsLost, lostCount)
	}
	if gw.WAN().Stats.LossDrops == 0 {
		t.Fatal("WAN link recorded no in-flight losses")
	}
}

// TestGatewayDeterministic pins the whole proxy pipeline: identical
// seeds reproduce identical gateway and WAN counters.
func TestGatewayDeterministic(t *testing.T) {
	run := func() (gateway.Stats, netem.WANStats) {
		net, gw := starNet(16, 4, gateway.Config{
			MaxConns: 2,
			WAN:      netem.WANConfig{BandwidthKbps: 8, Delay: 50 * sim.Millisecond, Loss: 0.1, QueueCap: 4},
		})
		for id := 1; id <= 3; id++ {
			startTCPSensor(net, id, 200*sim.Millisecond)
		}
		net.Eng.RunFor(30 * sim.Second)
		return gw.Stats, gw.WAN().Stats
	}
	g1, w1 := run()
	g2, w2 := run()
	if g1 != g2 {
		t.Fatalf("gateway stats diverged:\n%+v\n%+v", g1, g2)
	}
	if w1 != w2 {
		t.Fatalf("WAN stats diverged:\n%+v\n%+v", w1, w2)
	}
}
