package scenario

import (
	"reflect"
	"testing"

	"tcplp/internal/sim"
)

// TestRewriteScale pins -scale: every nonzero warmup and every window is
// multiplied, floored at 5 s and a window at one dc_sample period; a zero
// warmup, an idle phase and the input spec stay as they were; -warmup and
// -duration win over it.
func TestRewriteScale(t *testing.T) {
	spec := &Spec{
		Name:       "scaled",
		Topology:   TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:      []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
		Warmup:     Duration(20 * sim.Second),
		Duration:   Duration(10 * sim.Minute),
		IdleSettle: Duration(30 * sim.Second),
		IdleWindow: Duration(2 * sim.Minute),
	}
	day := &Spec{
		Name:     "day",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
		Duration: Duration(24 * sim.Hour),
		DCSample: Duration(sim.Hour),
	}
	noWindow := &Spec{
		Name:     "default-window",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
	}
	five := Duration(5 * sim.Second)
	for _, c := range []struct {
		rw                 Rewrite
		spec               *Spec
		warmup, window     Duration
		settle, idleWindow Duration
	}{
		{Rewrite{}, spec, spec.Warmup, spec.Duration, spec.IdleSettle, spec.IdleWindow},
		{Rewrite{Scale: 1}, spec, spec.Warmup, spec.Duration, spec.IdleSettle, spec.IdleWindow},
		{Rewrite{Scale: 0.5}, spec, Duration(10 * sim.Second), Duration(5 * sim.Minute), spec.IdleSettle, spec.IdleWindow},
		{Rewrite{Scale: 0.0001}, spec, five, five, spec.IdleSettle, spec.IdleWindow},
		{Rewrite{Scale: 0.1, Warmup: &five}, spec, five, Duration(sim.Minute), spec.IdleSettle, spec.IdleWindow},
		{Rewrite{Scale: 0.1}, day, 0, Duration(144 * sim.Minute), 0, 0},
		{Rewrite{Scale: 0.02}, day, 0, Duration(sim.Hour), 0, 0},
		{Rewrite{Scale: 0.02, Duration: &five}, day, 0, five, 0, 0},
		{Rewrite{Scale: 0.5}, noWindow, 0, Duration(30 * sim.Second), 0, 0},
	} {
		before := *c.spec
		cells := rewritten(t, c.rw, c.spec)
		got := cells[0]
		if got.Warmup != c.warmup || got.Duration != c.window || got.IdleSettle != c.settle || got.IdleWindow != c.idleWindow {
			t.Errorf("%s under %+v: warmup %v window %v idle %v+%v, want %v %v %v+%v", c.spec.Name, c.rw,
				got.Warmup, got.Duration, got.IdleSettle, got.IdleWindow, c.warmup, c.window, c.settle, c.idleWindow)
		}
		if !reflect.DeepEqual(*c.spec, before) {
			t.Fatalf("Apply rewrote its input %s", c.spec.Name)
		}
	}
}

// TestRewriteSeeds pins -seeds on a sweep: a cell's seeds are SeedSpacing
// apart from its first, so rewriting the expanded cells lands every cell on
// the seeds the rewritten sweep would have given it, seed_step included.
func TestRewriteSeeds(t *testing.T) {
	spec := &Spec{
		Name:     "seeds",
		Topology: TopologySpec{Kind: TopoChain},
		Flows:    []FlowSpec{{From: End(), To: NodeID(0)}},
		Sweep:    &Sweep{Hops: []int{1, 2, 3}, SeedStep: 7},
		Seeds:    []int64{40, 41},
	}
	cells := rewritten(t, Rewrite{Seeds: 3}, spec)
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	swept := *spec
	swept.Seeds = []int64{40, 40 + SeedSpacing, 40 + 2*SeedSpacing}
	for i, want := range swept.Expand() {
		if !reflect.DeepEqual(cells[i].Seeds, want.Seeds) {
			t.Fatalf("cell %d seeds %v, want %v", i, cells[i].Seeds, want.Seeds)
		}
	}
	if cells, _, err := (Rewrite{Seeds: maxSeeds + 1}).Apply([]*Spec{spec}); err == nil {
		t.Fatalf("%d seeds accepted (%d cells)", maxSeeds+1, len(cells))
	}
}
