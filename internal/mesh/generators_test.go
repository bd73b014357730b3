package mesh

import (
	"testing"
)

func TestRandomGeometricConnectedAndDeterministic(t *testing.T) {
	topo := RandomGeometric(300, 8, 1)
	if topo.N() != 300 {
		t.Fatalf("N=%d want 300", topo.N())
	}
	r := ComputeRoutes(topo.Adjacency())
	for i := 1; i < topo.N(); i++ {
		if r.Hops(i, 0) < 0 {
			t.Fatalf("node %d unreachable from border", i)
		}
	}
	again := RandomGeometric(300, 8, 1)
	for i := range topo.Positions {
		if topo.Positions[i] != again.Positions[i] {
			t.Fatalf("same seed diverged at node %d", i)
		}
	}
	other := RandomGeometric(300, 8, 2)
	same := true
	for i := range topo.Positions {
		if topo.Positions[i] != other.Positions[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestRandomGeometricDensityScalesArea(t *testing.T) {
	sparse := RandomGeometric(200, 4, 7)
	dense := RandomGeometric(200, 16, 7)
	degree := func(topo Topology) float64 {
		adj := topo.Adjacency()
		total := 0
		for _, nb := range adj {
			total += len(nb)
		}
		return float64(total) / float64(len(adj))
	}
	if degree(dense) <= degree(sparse) {
		t.Fatalf("density knob inert: dense degree %.1f <= sparse %.1f", degree(dense), degree(sparse))
	}
}

// The grid-backed Adjacency must match the all-pairs scan it replaced.
func TestAdjacencyGridMatchesNaive(t *testing.T) {
	naive := func(topo Topology) [][]int {
		n := topo.N()
		adj := make([][]int, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && topo.Positions[i].Dist(topo.Positions[j]) <= topo.TxRange {
					adj[i] = append(adj[i], j)
				}
			}
		}
		return adj
	}
	for name, topo := range map[string]Topology{
		"office":   Office(),
		"twinleaf": TwinLeaf(4, 20),
		"chain":    Chain(8, 20),
		"random":   RandomGeometric(250, 10, 3),
	} {
		got, want := topo.Adjacency(), naive(topo)
		if len(got) != len(want) {
			t.Fatalf("%s: node count mismatch", name)
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("%s: node %d degree %d want %d", name, i, len(got[i]), len(want[i]))
			}
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("%s: node %d neighbors %v want %v", name, i, got[i], want[i])
				}
			}
		}
	}
}
