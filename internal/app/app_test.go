package app_test

import (
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/coap"
	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/netem"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

func TestBulkSourceSinkGoodput(t *testing.T) {
	net := stack.New(1, mesh.Chain(2, 10), stack.DefaultOptions())
	cfg := net.FlowTCPConfig("")
	sink := app.ListenSinkConfig(net.Nodes[0], 80, cfg)
	src := app.StartBulkConfig(net.Nodes[1], cfg, net.Nodes[0].Addr, 80)
	net.Eng.RunFor(5 * sim.Second)
	sink.Mark()
	net.Eng.RunFor(20 * sim.Second)
	if g := sink.GoodputKbps(); g < 40 {
		t.Fatalf("goodput = %.1f", g)
	}
	if src.Sent < sink.Received {
		t.Fatal("sink received more than source sent")
	}
	src.Stop()
}

func TestSensorQueueOverflow(t *testing.T) {
	net := stack.New(3, mesh.Chain(2, 10), stack.DefaultOptions())
	// A transport that never accepts anything.
	s := app.NewSensor(net.Nodes[1], blockedTransport{}, 4)
	s.Interval = sim.Second
	s.Start()
	net.Eng.RunUntil(sim.Time(10 * sim.Second))
	if s.Stats.Generated != 10 {
		t.Fatalf("generated = %d", s.Stats.Generated)
	}
	if s.Stats.Dropped != 6 || s.QueueDepth() != 4 {
		t.Fatalf("dropped=%d depth=%d, want 6 dropped with 4 queued", s.Stats.Dropped, s.QueueDepth())
	}
}

type blockedTransport struct{}

func (blockedTransport) Send(p []byte) int { return 0 }

func TestSensorBatchingHoldsUntilThreshold(t *testing.T) {
	net := stack.New(4, mesh.Chain(2, 10), stack.DefaultOptions())
	rec := &recordingTransport{}
	s := app.NewSensor(net.Nodes[1], rec, 128)
	s.Interval = sim.Second
	s.Batch = 8
	s.Start()
	net.Eng.RunUntil(sim.Time(7 * sim.Second))
	if rec.calls != 0 {
		t.Fatalf("transport invoked before batch threshold: %d", rec.calls)
	}
	net.Eng.RunUntil(sim.Time(9 * sim.Second))
	if rec.calls == 0 {
		t.Fatal("batch never flushed")
	}
	if rec.bytes != 8*app.ReadingSize {
		t.Fatalf("flushed %d bytes, want %d", rec.bytes, 8*app.ReadingSize)
	}
}

// TestGenTimeIsTheGenerationEvent: GenTime(seq) is the time of the
// sensor's JourneyGen event for every seq, whether the reading was
// queued or lost to a full application queue, with a batching sensor
// started part-way into the run, and no reading is generated after Stop.
func TestGenTimeIsTheGenerationEvent(t *testing.T) {
	opt := stack.DefaultOptions()
	opt.Trace = obs.NewTrace()
	gens, losses := &genRecorder{}, 0
	opt.Trace.AddSink(gens)
	net := stack.New(7, mesh.Chain(2, 10), opt)
	tr := &gatedTransport{}
	s := app.NewSensor(net.Nodes[1], tr, 6)
	s.Interval = 733 * sim.Millisecond
	s.Batch = 3
	net.Eng.RunFor(1234567 * sim.Microsecond)
	s.Start()
	for i := 0; i < 8; i++ { // the queue fills while the transport is shut
		tr.open = i%2 == 0
		net.Eng.RunFor(9 * sim.Second)
	}
	s.Stop()
	stopped := net.Eng.Now()
	net.Eng.RunFor(20 * sim.Second)
	for _, e := range gens.events {
		if e.Kind == obs.JourneyLoss && e.Cause == obs.CauseAppQueueFull {
			losses++
		}
	}
	n := 0
	for _, e := range gens.events {
		if e.Kind != obs.JourneyGen {
			continue
		}
		n++
		if seq := uint32(e.A); seq != uint32(n) || s.GenTime(seq) != e.T || e.T > stopped {
			t.Fatalf("reading %d: seq %d generated at %v (Stop at %v), GenTime %v", n, seq, e.T, stopped, s.GenTime(seq))
		}
	}
	if uint64(n) != s.Stats.Generated || n < 90 || losses == 0 || uint64(losses) != s.Stats.Dropped || tr.bytes == 0 {
		t.Fatalf("%d generation events for %d readings, %d app-queue losses (%d dropped), %d bytes sent: the test no longer covers what it says",
			n, s.Stats.Generated, losses, s.Stats.Dropped, tr.bytes)
	}
}

type genRecorder struct{ events []obs.Event }

func (g *genRecorder) Record(e obs.Event) { g.events = append(g.events, e) }

// gatedTransport takes everything while open and nothing while shut.
type gatedTransport struct {
	open  bool
	bytes int
}

func (g *gatedTransport) Send(p []byte) int {
	if !g.open {
		return 0
	}
	g.bytes += len(p)
	return len(p)
}

type recordingTransport struct {
	calls int
	bytes int
}

func (r *recordingTransport) Send(p []byte) int { r.calls++; r.bytes += len(p); return len(p) }

// The two end-to-end tests credit readings where a scenario run does:
// at the production collector-side sinks (ListenReadingSink for TCP, a
// coap.Server handing each POST to ForEachReading for CoAP), delivery
// counted at the server as the paper does. Each wants nine in ten of the
// readings generated delivered, the backlog still queued included.
func TestTCPTransportEndToEnd(t *testing.T) {
	net := stack.New(5, mesh.Chain(2, 10), stack.DefaultOptions())
	host := net.AttachHost()
	cfg := net.FlowTCPConfig("")
	var s *app.Sensor
	sink := app.ListenReadingSink(host, 80, cfg, func(uint32) { s.Stats.Delivered++ })

	tr := app.NewTCPTransportConfig(net.Nodes[1], cfg, host.Addr, 80)
	s = app.NewSensor(net.Nodes[1], tr, app.TCPQueueCap)
	s.Interval = 200 * sim.Millisecond
	s.Start()
	net.Eng.RunFor(30 * sim.Second)
	if s.Stats.Delivered == 0 || sink.Received != int(s.Stats.Delivered)*app.ReadingSize {
		t.Fatalf("collected %d readings in %d bytes over TCP", s.Stats.Delivered, sink.Received)
	}
	if st := s.Stats; st.Delivered*10 < st.Generated*9 {
		t.Fatalf("delivered %d of %d readings over TCP", st.Delivered, st.Generated)
	}
}

func TestCoAPTransportEndToEnd(t *testing.T) {
	net := stack.New(6, mesh.Chain(2, 10), stack.DefaultOptions())
	host := net.AttachHost()
	var s *app.Sensor
	srv := coap.NewServer(host.Eng(), host.UDP(), coap.DefaultPort)
	srv.OnPost = func(_ ip6.Addr, payload []byte) coap.Code {
		app.ForEachReading(payload, func(uint32) { s.Stats.Delivered++ })
		return coap.CodeChanged
	}

	tr := app.NewCoAPTransportPort(net.Nodes[1], host.Addr, coap.DefaultPort, true, 410)
	s = app.NewSensor(net.Nodes[1], tr, app.CoAPQueueCap)
	s.Interval = 200 * sim.Millisecond
	s.Start()
	net.Eng.RunFor(30 * sim.Second)
	if s.Stats.Delivered == 0 {
		t.Fatal("no readings collected over CoAP")
	}
	if st := s.Stats; st.Delivered*10 < st.Generated*9 {
		t.Fatalf("delivered %d of %d readings over CoAP", st.Delivered, st.Generated)
	}
}

func TestUniformLossFilter(t *testing.T) {
	f := netem.UniformLoss(0.5, 1)
	drops := 0
	for i := 0; i < 1000; i++ {
		if f(nil) {
			drops++
		}
	}
	if drops < 400 || drops > 600 {
		t.Fatalf("drops = %d/1000 at p=0.5", drops)
	}
}

func TestDiurnalProfileShape(t *testing.T) {
	prof := netem.DiurnalProfile(1.0)
	night := prof(sim.Time(3 * sim.Hour))
	noon := prof(sim.Time(12 * sim.Hour))
	evening := prof(sim.Time(19 * sim.Hour))
	if !(noon > evening && evening > night) {
		t.Fatalf("profile not diurnal: night=%.2f noon=%.2f evening=%.2f", night, noon, evening)
	}
	// Periodic across days.
	if prof(sim.Time(12*sim.Hour)) != prof(sim.Time(36*sim.Hour)) {
		t.Fatal("profile not 24h-periodic")
	}
}
