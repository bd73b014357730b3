package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tcplp/internal/sim"
)

// gwStar is the gateway-tier test scenario: a star fleet streaming
// telemetry through the border-router gateway onto a shaped WAN.
func gwStar(devices int, seeds ...int64) *Spec {
	return &Spec{
		Name:     "gw",
		Topology: TopologySpec{Kind: TopoStar, Nodes: devices + 1},
		Gateway: &GatewaySpec{
			MaxConns: 8,
			WAN: WANSpec{
				BandwidthKbps: 16,
				RTT:           Duration(100 * sim.Millisecond),
				Loss:          0.02,
				QueueCap:      8,
			},
		},
		Flows: []FlowSpec{{
			Label:     "dev",
			To:        Gateway(),
			PerDevice: true,
			Pattern:   PatternAnemometer,
			Interval:  Duration(200 * sim.Millisecond),
		}},
		Warmup:   Duration(2 * sim.Second),
		Duration: Duration(20 * sim.Second),
		Seeds:    seeds,
	}
}

func TestGatewaySpecJSONRoundTrip(t *testing.T) {
	spec := gwStar(3, 800, 801)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || !reflect.DeepEqual(parsed[0], spec) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", spec, parsed[0])
	}
	if parsed[0].Flows[0].To.String() != "gateway" {
		t.Fatalf("gateway sink rendered %q", parsed[0].Flows[0].To.String())
	}
}

func TestGatewayValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no gateway block", func(s *Spec) { s.Gateway = nil }, "needs a gateway block"},
		{"gateway as source", func(s *Spec) {
			s.Flows[0].PerDevice = false
			s.Flows[0].From = Gateway()
			s.Flows[0].To = NodeID(0)
		}, "sink reference"},
		{"udp gateway flow", func(s *Spec) { s.Flows[0].Protocol = "udp" }, "protocol tcp or coap"},
		{"bulk gateway flow", func(s *Spec) {
			s.Flows[0].PerDevice = false
			s.Flows[0].From = NodeID(1)
			s.Flows[0].Pattern = PatternBulk
		}, "carry telemetry"},
		{"two flows one device", func(s *Spec) {
			s.Flows[0].PerDevice = false
			s.Flows[0].From = NodeID(1)
			s.Flows = append(s.Flows, s.Flows[0])
		}, "both terminate device"},
		{"per_device without gateway sink", func(s *Spec) {
			s.Flows[0].From = NodeID(1)
			s.Flows[0].To = NodeID(0)
			s.Flows[0].Pattern = PatternAnemometer
		}, "per_device needs"},
		{"per_device plus extra gateway flow", func(s *Spec) {
			extra := s.Flows[0]
			extra.PerDevice = false
			extra.From = NodeID(1)
			s.Flows = append(s.Flows, extra)
		}, "only gateway flow"},
		{"negative max_conns", func(s *Spec) { s.Gateway.MaxConns = -1 }, "negative max_conns"},
		{"wan loss out of range", func(s *Spec) { s.Gateway.WAN.Loss = 1.0 }, "out of range"},
		{"devices axis on twinleaf", func(s *Spec) {
			s.Topology = TopologySpec{Kind: TopoTwinLeaf, PathHops: 2}
			s.Sweep = &Sweep{Devices: []int{2}}
		}, "star or chain"},
		{"zero devices", func(s *Spec) { s.Sweep = &Sweep{Devices: []int{0}} }, "devices value 0"},
		{"bad protocol preset", func(s *Spec) { s.Sweep = &Sweep{Protocols: []string{"quic"}} }, "protocol"},
	}
	for _, c := range cases {
		spec := gwStar(3, 1)
		c.mutate(spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if err := gwStar(3, 1).Validate(); err != nil {
		t.Fatalf("valid gateway spec rejected: %v", err)
	}
}

// TestGatewaySweepExpansion pins the devices × protocols grid: cell
// naming, fleet regrowth, and the preset rewriting every flow.
func TestGatewaySweepExpansion(t *testing.T) {
	spec := gwStar(2, 800)
	spec.Topology.Nodes = 0
	spec.Sweep = &Sweep{
		Devices:   []int{2, 4},
		Protocols: []string{"tcp", "cocoa"},
		SeedStep:  7,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 2×2", len(cells))
	}
	wantNames := []string{
		"gw/dev=2/proto=tcp", "gw/dev=2/proto=cocoa",
		"gw/dev=4/proto=tcp", "gw/dev=4/proto=cocoa",
	}
	wantNodes := []int{3, 3, 5, 5}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Topology.Nodes != wantNodes[i] {
			t.Fatalf("cell %d nodes = %d, want %d", i, c.Topology.Nodes, wantNodes[i])
		}
		if c.Seeds[0] != 800+int64(i)*7 {
			t.Fatalf("cell %d seed = %d", i, c.Seeds[0])
		}
		f := c.Flows[0]
		if i%2 == 1 { // cocoa preset: CoAP CON with the CoCoA RTO
			if f.Protocol != "coap" || f.Confirmable == nil || !*f.Confirmable || f.RTO != "cocoa" {
				t.Fatalf("cell %d preset not applied: %+v", i, f)
			}
		} else if f.Protocol != "tcp" || f.RTO != "" {
			t.Fatalf("cell %d preset not applied: %+v", i, f)
		}
	}
	// The per_device template replicates to the cell's fleet size.
	resolved := cells[2].withDefaults()
	if len(resolved.Flows) != 4 {
		t.Fatalf("dev=4 cell resolved to %d flows, want 4", len(resolved.Flows))
	}
	for i, f := range resolved.Flows {
		if f.From != NodeID(i+1) || !f.To.Gateway || f.Label != "dev-"+string(rune('1'+i)) {
			t.Fatalf("replica %d = %+v", i, f)
		}
	}
}

// TestGatewayRunEndToEnd runs a small gateway cell and checks the
// result plumbing: per-flow e2e fields, credit shares summing to one,
// and the run-level gateway block.
func TestGatewayRunEndToEnd(t *testing.T) {
	sr, err := (&Runner{}).Run(gwStar(3, 800))
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 1 || len(sr.Runs[0].Flows) != 3 {
		t.Fatalf("runs/flows = %d/%d", len(sr.Runs), len(sr.Runs[0].Flows))
	}
	run := sr.Runs[0]
	if run.Gateway == nil {
		t.Fatal("run carries no gateway block")
	}
	var share float64
	for _, fl := range run.Flows {
		if !fl.Gateway {
			t.Fatalf("flow %s not marked as a gateway flow", fl.Label)
		}
		if fl.Generated == 0 || fl.E2EDelivered == 0 {
			t.Fatalf("flow %s: generated=%d e2e=%d", fl.Label, fl.Generated, fl.E2EDelivered)
		}
		if fl.E2EDeliveryRatio <= 0 || fl.E2EDeliveryRatio > 1 {
			t.Fatalf("flow %s: e2e ratio %v", fl.Label, fl.E2EDeliveryRatio)
		}
		if fl.E2EDelivered > fl.Delivered {
			t.Fatalf("flow %s: e2e %d exceeds gateway deliveries %d",
				fl.Label, fl.E2EDelivered, fl.Delivered)
		}
		share += fl.CreditShare
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("credit shares sum to %v, want 1", share)
	}
	if run.Gateway.CreditJain <= 0 || run.Gateway.CreditJain > 1 {
		t.Fatalf("credit jain = %v", run.Gateway.CreditJain)
	}
	if run.Gateway.WANSent == 0 || run.Gateway.WANDelivered == 0 {
		t.Fatalf("WAN idle: %+v", run.Gateway)
	}
	// The fleet connected during warmup, so the measurement window sees
	// no new accepts — just the live table.
	if run.Gateway.ActiveConns != 3 {
		t.Fatalf("active connections = %d, want 3: %+v", run.Gateway.ActiveConns, run.Gateway)
	}
}

// TestGatewaySerialParallelIdentical extends the runner's bit-identity
// guarantee to gateway scenarios: the shared connection table, WAN
// queue, and per-source credits must not introduce schedule dependence.
func TestGatewaySerialParallelIdentical(t *testing.T) {
	spec := gwStar(3, 800, 807, 814)
	serial, err := (&Runner{Workers: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 4}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatalf("serial and parallel gateway runs differ:\nserial:   %+v\nparallel: %+v",
			serial.Runs, parallel.Runs)
	}
	if reflect.DeepEqual(serial.Runs[0].Flows, serial.Runs[1].Flows) {
		t.Fatal("different seeds produced identical gateway results")
	}
}

// TestGatewayCollapsePoint regression-pins the capacity story: a fleet
// well past the uplink's capacity delivers a smaller fraction end to
// end and shares cloud credits less fairly than a fleet within it.
func TestGatewayCollapsePoint(t *testing.T) {
	spec := gwStar(2, 800)
	spec.Topology.Nodes = 0
	spec.Gateway.WAN = WANSpec{
		BandwidthKbps: 8,
		RTT:           Duration(100 * sim.Millisecond),
		Loss:          0.01,
		QueueCap:      8,
	}
	// At 500 ms per reading, two devices fit comfortably inside 8 kb/s
	// (including WAN framing); twelve oversubscribe it threefold.
	spec.Flows[0].Interval = Duration(500 * sim.Millisecond)
	spec.Duration = Duration(30 * sim.Second)
	spec.Sweep = &Sweep{Devices: []int{2, 12}}
	res, err := (&Runner{}).RunAll([]*Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("cells = %d, want 2", len(res))
	}
	e2e := func(sr *SpecResult) float64 {
		var gen, cred uint64
		for _, fl := range sr.Runs[0].Flows {
			gen += fl.Generated
			cred += fl.E2EDelivered
		}
		return float64(cred) / float64(gen)
	}
	smallE2E, bigE2E := e2e(res[0]), e2e(res[1])
	if smallE2E < 0.9 {
		t.Fatalf("2 devices under-deliver: e2e %.3f", smallE2E)
	}
	if bigE2E > smallE2E-0.2 {
		t.Fatalf("no collapse: e2e %.3f at 12 devices vs %.3f at 2", bigE2E, smallE2E)
	}
	smallJain := res[0].Runs[0].Gateway.CreditJain
	bigJain := res[1].Runs[0].Gateway.CreditJain
	if smallJain < 0.95 {
		t.Fatalf("2 devices already unfair: jain %.3f", smallJain)
	}
	if bigJain >= smallJain {
		t.Fatalf("queue-drop skew missing: jain %.3f at 12 devices vs %.3f at 2", bigJain, smallJain)
	}
	// The overload cell must actually be hitting the WAN queue.
	if res[1].Runs[0].Gateway.WANQueueDrops == 0 {
		t.Fatal("12-device cell never tail-dropped at the WAN queue")
	}
}

// TestCoAPRTTSamples checks the CoAP client-side RTT observability: a
// plain coap flow (no gateway needed) reports its sampled RTT columns.
func TestCoAPRTTSamples(t *testing.T) {
	spec := &Spec{
		Name:     "coap-rtt",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows: []FlowSpec{{
			Label:    "tele",
			From:     NodeID(1),
			To:       NodeID(0),
			Protocol: "coap",
			Pattern:  PatternAnemometer,
			Interval: Duration(200 * sim.Millisecond),
		}},
		Warmup:   Duration(2 * sim.Second),
		Duration: Duration(20 * sim.Second),
		Seeds:    []int64{41},
	}
	sr, err := (&Runner{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	fl := sr.Runs[0].Flows[0]
	if fl.MeanRTTms <= 0 || fl.MedianRTTms <= 0 {
		t.Fatalf("CoAP RTT not sampled: mean %.2f median %.2f", fl.MeanRTTms, fl.MedianRTTms)
	}
	if fl.MedianRTTms > 10000 {
		t.Fatalf("CoAP median RTT implausible: %.2f ms", fl.MedianRTTms)
	}
}
