package mesh

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tcplp/internal/phy"
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

// hypotCells is the oracles' own spatial index: a map from a cell of side
// size to the ids in it, in the order they were added.
type hypotCells struct {
	size  float64
	cells map[[2]int64][]int
}

func (h *hypotCells) cell(p phy.Point) [2]int64 {
	return [2]int64{int64(math.Floor(p.X / h.size)), int64(math.Floor(p.Y / h.size))}
}

func (h *hypotCells) add(id int, p phy.Point) { c := h.cell(p); h.cells[c] = append(h.cells[c], id) }

// near returns the ids in the 3×3 cells around p.
func (h *hypotCells) near(p phy.Point) []int {
	c := h.cell(p)
	var ids []int
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			ids = append(ids, h.cells[[2]int64{c[0] + dx, c[1] + dy}]...)
		}
	}
	return ids
}

// hypotAdjacency is the per-node scan Adjacency replaced: every node's
// candidates tested with math.Hypot, sorted, and copied into a list of its
// own (nil when empty).
func hypotAdjacency(topo Topology) [][]int {
	adj := make([][]int, topo.N())
	if topo.N() == 0 || topo.TxRange <= 0 {
		return adj
	}
	h := &hypotCells{size: topo.TxRange, cells: map[[2]int64][]int{}}
	for i, p := range topo.Positions {
		h.add(i, p)
	}
	for i, p := range topo.Positions {
		var nbrs []int
		for _, j := range h.near(p) {
			q := topo.Positions[j]
			if i != j && math.Hypot(p.X-q.X, p.Y-q.Y) <= topo.TxRange {
				nbrs = append(nbrs, j)
			}
		}
		sort.Ints(nbrs)
		adj[i] = nbrs
	}
	return adj
}

// hypotRandomGeometric is the placement RandomGeometric replaced: the same
// draws, each sample accepted by math.Hypot against the nodes placed so far.
func hypotRandomGeometric(n int, density float64, seed int64) []phy.Point {
	const txRange = 10.0
	rng := rand.New(rand.NewSource(seed))
	side := math.Max(math.Sqrt(float64(n)*math.Pi*txRange*txRange/density), txRange)
	h := &hypotCells{size: txRange, cells: map[[2]int64][]int{}}
	var pos []phy.Point
	place := func(p phy.Point) { h.add(len(pos), p); pos = append(pos, p) }
	place(phy.Point{X: side / 2, Y: side / 2})
	for len(pos) < n {
		placed := false
		for try := 0; try < 100 && !placed; try++ {
			p := phy.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			for _, id := range h.near(p) {
				if placed = math.Hypot(p.X-pos[id].X, p.Y-pos[id].Y) <= txRange; placed {
					place(p)
					break
				}
			}
		}
		if !placed {
			anchor := pos[rng.Intn(len(pos))]
			angle := rng.Float64() * 2 * math.Pi
			d := txRange * (0.3 + 0.6*rng.Float64())
			place(phy.Point{X: anchor.X + d*math.Cos(angle), Y: anchor.Y + d*math.Sin(angle)})
		}
	}
	return pos
}

// sameAdjacency fails unless got holds want's lists in values and order,
// nil where want is nil, each with no spare capacity.
func sameAdjacency(t *testing.T, name string, got, want [][]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lists, want %d", name, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) || (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("%s: node %d neighbors %v, want %v", name, i, got[i], want[i])
		}
		if cap(got[i]) != len(got[i]) {
			t.Fatalf("%s: node %d list has cap %d for %d entries", name, i, cap(got[i]), len(got[i]))
		}
	}
}

// edgeTopologies are every topology kind plus the range relation's edge
// cases: no nodes, one node, coincident points, no range, pairs exactly at
// the range, and a random field whose sparse placement falls back.
func edgeTopologies() map[string]Topology {
	return map[string]Topology{
		"office":          Office(),
		"twinleaf":        TwinLeaf(4, 20),
		"chain":           Chain(8, 20),
		"star":            Star(40, 10),
		"empty":           {TxRange: 10},
		"single":          Chain(1, 10),
		"coincident":      {Positions: make([]phy.Point, 5), TxRange: 1},
		"zero_range":      {Positions: Chain(4, 10).Positions},
		"exact_at_range":  {Positions: []phy.Point{{}, {X: 3}, {X: 3, Y: 4}, {Y: 5}, {X: -5}, {X: 8, Y: 6}}, TxRange: 5},
		"random_fallback": RandomGeometric(300, 1.5, 9),
	}
}

// The pairwise Adjacency must equal the per-node Hypot scan on every
// topology kind, and on random fields whose placement, from the same
// draws, equals the Hypot-accepted one: the range test is exact, so not a
// single borderline pair or sample may come out differently.
func TestAdjacencyGridMatchesNaive(t *testing.T) {
	for name, topo := range edgeTopologies() {
		sameAdjacency(t, name, topo.Adjacency(), hypotAdjacency(topo))
	}
	sizes := []int{2, 40, 700, 5000}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, density := range []float64{2.5, 6, 16, 40} {
		for _, n := range sizes {
			for seed := int64(1); seed <= 20; seed++ {
				name := fmt.Sprintf("random n=%d density=%g seed=%d", n, density, seed)
				topo := RandomGeometric(n, density, seed)
				if want := hypotRandomGeometric(n, density, seed); !slices.Equal(topo.Positions, want) {
					t.Fatalf("%s: placement differs from the Hypot-accepted one", name)
				}
				sameAdjacency(t, name, topo.Adjacency(), hypotAdjacency(topo))
			}
		}
	}
}

// BenchmarkAdjacency, BenchmarkTopologyRoutes and BenchmarkRandomGeometric
// time set-up's geometry on a metro_10k-sized field: 10 000 nodes at
// density 16.
func BenchmarkAdjacency(b *testing.B) {
	topo := RandomGeometric(10000, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.Adjacency()
	}
}

// BenchmarkTopologyRoutes times what a network's set-up computes in
// Adjacency's place: node 0's routes, straight from the positions.
func BenchmarkTopologyRoutes(b *testing.B) {
	topo := RandomGeometric(10000, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.Routes()
	}
}

func BenchmarkRandomGeometric(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomGeometric(10000, 16, 1)
	}
}
