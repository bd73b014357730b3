package scenario

import (
	"math"
	"strings"
	"testing"

	"tcplp/internal/sim"
)

// citySpec is a small random-geometric mesh with a gateway and a strided
// per-device telemetry template — the city_1k.json shape at test scale.
func citySpec(nodes int) *Spec {
	return &Spec{
		Name:     "city-test",
		Topology: TopologySpec{Kind: TopoRandomGeometric, Nodes: nodes, Density: 8},
		Gateway:  &GatewaySpec{WAN: WANSpec{BandwidthKbps: 256, RTT: Duration(50 * sim.Millisecond), QueueCap: 64}},
		Flows: []FlowSpec{{
			Label: "dev", To: Gateway(), PerDevice: true, Stride: 3,
			Pattern: PatternAnemometer, Interval: Duration(2 * sim.Second),
		}},
		Warmup:   Duration(2 * sim.Second),
		Duration: Duration(6 * sim.Second),
		Seeds:    []int64{1},
	}
}

func TestGeneratedTopologyValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"too few nodes", func(s *Spec) { s.Topology.Nodes = 1 }, "nodes >= 2"},
		{"negative density", func(s *Spec) { s.Topology.Density = -1 }, "density"},
	}
	for _, c := range cases {
		spec := citySpec(12)
		c.mutate(spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if err := citySpec(12).Validate(); err != nil {
		t.Fatalf("valid random_geometric spec rejected: %v", err)
	}
}

// TestGeneratedTopologyRuns drives the generated kind end-to-end: the
// run must deliver telemetry (the mesh is connected by construction) and
// report a deterministic event count.
func TestGeneratedTopologyRuns(t *testing.T) {
	spec := citySpec(12)
	res, err := (&Runner{}).Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	run := res.Runs[0]
	if run.Events == 0 {
		t.Fatalf("%s: no events recorded", spec.Name)
	}
	delivered := uint64(0)
	for _, f := range run.Flows {
		delivered += f.Delivered
	}
	if delivered == 0 {
		t.Fatalf("%s: no readings delivered", spec.Name)
	}
}

func TestNodesAndLossAxes(t *testing.T) {
	spec := citySpec(12)
	spec.Sweep = &Sweep{
		Nodes:        []int{6, 12},
		InjectedLoss: []float64{0, 0.12},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 2×2", len(cells))
	}
	wantNames := []string{
		"city-test/n=6/loss=0%", "city-test/n=6/loss=12%",
		"city-test/n=12/loss=0%", "city-test/n=12/loss=12%",
	}
	wantNodes := []int{6, 6, 12, 12}
	wantLoss := []float64{0, 0.12, 0, 0.12}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Topology.Nodes != wantNodes[i] {
			t.Fatalf("cell %d nodes = %d, want %d", i, c.Topology.Nodes, wantNodes[i])
		}
		if c.Net.InjectedLoss != wantLoss[i] {
			t.Fatalf("cell %d loss = %v, want %v", i, c.Net.InjectedLoss, wantLoss[i])
		}
	}

	// The nodes axis only makes sense for generated meshes.
	chain := citySpec(12)
	chain.Topology = TopologySpec{Kind: TopoChain, Nodes: 4}
	chain.Flows = []FlowSpec{{From: End(), To: NodeID(0)}}
	chain.Gateway = nil
	chain.Sweep = &Sweep{Nodes: []int{4, 8}}
	if err := chain.Validate(); err == nil || !strings.Contains(err.Error(), "random_geometric") {
		t.Fatalf("nodes axis on chain: err = %v", err)
	}

	for _, c := range []struct {
		sweep Sweep
		want  string
	}{
		{Sweep{Nodes: []int{1}}, "nodes value"},
		{Sweep{InjectedLoss: []float64{1.0}}, "out of range"},
		{Sweep{InjectedLoss: []float64{-0.1}}, "out of range"},
	} {
		s := citySpec(12)
		sw := c.sweep
		s.Sweep = &sw
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("sweep %+v: err = %v, want %q", c.sweep, err, c.want)
		}
	}
}

func TestPerDeviceStride(t *testing.T) {
	spec := citySpec(12)
	got := spec.withDefaults()
	// Devices 1, 4, 7, 10 under stride 3 across ids 1..11.
	if len(got.Flows) != 4 {
		t.Fatalf("flows = %d, want 4", len(got.Flows))
	}
	wantFrom := []int{1, 4, 7, 10}
	for i, f := range got.Flows {
		if f.From.ID != wantFrom[i] || f.PerDevice || f.Stride != 0 {
			t.Fatalf("flow %d = %+v, want from %d, template flags cleared", i, f, wantFrom[i])
		}
		if f.Label != "dev-"+itoa(wantFrom[i]) {
			t.Fatalf("flow %d label = %q", i, f.Label)
		}
	}

	bad := citySpec(12)
	bad.Flows[0].Stride = -1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "stride") {
		t.Fatalf("negative stride: err = %v", err)
	}
	bad = citySpec(12)
	bad.Flows[0].PerDevice = false
	bad.Flows[0].From = NodeID(1)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "stride") {
		t.Fatalf("stride without per_device: err = %v", err)
	}
}

func itoa(v int) string {
	if v < 10 {
		return string(rune('0' + v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

// The adjacency estimate Validate budgets against must track what the
// generators build where the budget can bind: a star, and a random field
// clamped to one range across.
func TestAdjacencyEstimateMatchesBuilt(t *testing.T) {
	for _, ts := range []TopologySpec{
		{Kind: TopoStar, Nodes: 200},
		{Kind: TopoStar, Nodes: 2000},
		{Kind: TopoRandomGeometric, Nodes: 300, Density: 1e6},
		{Kind: TopoRandomGeometric, Nodes: 2000, Density: 1e6},
	} {
		built := 0
		for _, nbrs := range ts.build().Adjacency() {
			built += len(nbrs)
		}
		if est := ts.adjacencyEntries(); math.Abs(est-float64(built)) > 0.05*float64(built) {
			t.Errorf("%s of %d nodes, density %g: estimate %.0f entries, built %d", ts.Kind, ts.Nodes, ts.Density, est, built)
		}
	}
}
