package mesh

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"tcplp/internal/phy"
)

// oracleColumn spells out the routing rule with nothing shared with
// Routes: each list sorted into id order, a BFS from dst over the sorted
// lists, then for every src the first neighbour one hop closer to dst.
func oracleColumn(adj [][]int, dst int) (next, hops []int) {
	n := len(adj)
	sorted := make([][]int, n)
	for i, nbs := range adj {
		sorted[i] = slices.Clone(nbs)
		slices.Sort(sorted[i])
	}
	adj = sorted
	hops = make([]int, n)
	for i := range hops {
		hops[i] = -1
	}
	hops[dst] = 0
	for queue := []int{dst}; len(queue) > 0; queue = queue[1:] {
		for _, nb := range adj[queue[0]] {
			if hops[nb] < 0 {
				hops[nb] = hops[queue[0]] + 1
				queue = append(queue, nb)
			}
		}
	}
	next = make([]int, n)
	for src := range next {
		next[src] = -1
		for _, nb := range adj[src] {
			if hops[src] > 0 && hops[nb] == hops[src]-1 {
				next[src] = nb
				break
			}
		}
	}
	return next, hops
}

// heapTree links node i to its parent (i-1)/2: a binary tree rooted at the
// border router, where every route runs through a common ancestor.
func heapTree(n int) [][]int {
	adj := make([][]int, n)
	for i := 1; i < n; i++ {
		p := (i - 1) / 2
		adj[p] = append(adj[p], i)
		adj[i] = append(adj[i], p)
	}
	return adj
}

// lattice links a w×h square grid, node i at column i%w and row i/w, to
// its four neighbours in id order. Node 0 is a corner, and every other
// node has several shortest paths to it, so ties between them decide
// every route.
func lattice(w, h int) [][]int {
	adj := make([][]int, w*h)
	for i := range adj {
		x, y := i%w, i/w
		if y > 0 {
			adj[i] = append(adj[i], i-w)
		}
		if x > 0 {
			adj[i] = append(adj[i], i-1)
		}
		if x < w-1 {
			adj[i] = append(adj[i], i+1)
		}
		if y < h-1 {
			adj[i] = append(adj[i], i+w)
		}
	}
	return adj
}

// checkRoutes asks every (src, dst) pair of adj and fails where NextHop or
// Hops differs from the oracle. Node 0's hop counts and parents answer
// some pairs and the per-destination columns the rest, so the pairs are
// asked in two orders that build those columns in opposite sequence.
func checkRoutes(t *testing.T, name string, adj [][]int) {
	t.Helper()
	n := len(adj)
	next, hops := make([][]int, n), make([][]int, n)
	for dst := range adj {
		next[dst], hops[dst] = oracleColumn(adj, dst)
	}
	check := func(r *Routes, src, dst int) {
		t.Helper()
		nh, ok := r.NextHop(src, dst)
		if want := next[dst][src]; ok != (want >= 0) || (ok && nh != want) {
			t.Fatalf("%s: NextHop(%d,%d) = %d,%v, oracle %d", name, src, dst, nh, ok, want)
		}
		if h := r.Hops(src, dst); h != hops[dst][src] {
			t.Fatalf("%s: Hops(%d,%d) = %d, oracle %d", name, src, dst, h, hops[dst][src])
		}
	}
	// Downlinks (0 → d) first, then everything by destination.
	r := ComputeRoutes(adj)
	for dst := 0; dst < n; dst++ {
		check(r, 0, dst)
	}
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			check(r, src, dst)
		}
	}
	// Uplinks (s → 0) first, then everything by source, deepest
	// sources first.
	r = ComputeRoutes(adj)
	for src := 0; src < n; src++ {
		check(r, src, 0)
	}
	for src := n - 1; src >= 0; src-- {
		for dst := n - 1; dst >= 0; dst-- {
			check(r, src, dst)
		}
	}
}

// routeGraphs are the hand-built graphs both routing tests start from.
func routeGraphs() map[string][][]int {
	return map[string][][]int{
		"chain":       Chain(9, 10).Adjacency(),
		"star":        Star(7, 10).Adjacency(),
		"office":      Office().Adjacency(),
		"twinleaf":    TwinLeaf(4, 20).Adjacency(),
		"tree":        heapTree(40),
		"lattice":     lattice(6, 6),
		"two_islands": {{1, 2}, {0, 2}, {0, 1}, {4}, {3, 5}, {4}},
	}
}

// Every (src, dst) pair must route as the oracle does, on the hand-built
// graphs, on a 12×12 lattice where ties between equal-length paths decide
// every route, and on random fields from thin to dense.
func TestRoutesMatchOracle(t *testing.T) {
	graphs := routeGraphs()
	graphs["lattice_12x12"] = lattice(12, 12)
	graphs["random_dense"] = RandomGeometric(300, 16, 1).Adjacency()
	graphs["random_sparse"] = RandomGeometric(300, 5, 2).Adjacency()
	graphs["random_thin"] = RandomGeometric(200, 2.5, 5).Adjacency()
	for i, density := range []float64{3, 4, 5, 6, 7, 8, 10, 12, 14, 16} {
		seed := int64(11 + i)
		graphs[fmt.Sprintf("random_d%g_s%d", density, seed)] = RandomGeometric(150, density, seed).Adjacency()
	}
	for name, adj := range graphs {
		checkRoutes(t, name, adj)
	}
}

// graphBytes encodes adj for FuzzRoutes: a node count, then each edge once
// as two node ids.
func graphBytes(adj [][]int) []byte {
	b := []byte{byte(len(adj) - 2)}
	for u, nbs := range adj {
		for _, v := range nbs {
			if v > u {
				b = append(b, byte(u), byte(v))
			}
		}
	}
	return b
}

// FuzzRoutes decodes bytes into an undirected graph of 2 to 48 nodes:
// the first byte sets the node count and each following pair of bytes is
// an edge. A node lists its neighbours in the order its edges arrive, not
// by id, so the BFS's id ordering is exercised on every list. Every pair
// must route as the oracle does, in both query orders. Seeds: the
// hand-built graphs of TestRoutesMatchOracle.
func FuzzRoutes(f *testing.F) {
	graphs := routeGraphs()
	names := make([]string, 0, len(graphs))
	for name := range graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(graphBytes(graphs[name]))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		n := 2 + int(b[0])%47
		adj := make([][]int, n)
		linked := map[[2]int]bool{}
		for i := 1; i+1 < len(b); i += 2 {
			u, v := int(b[i])%n, int(b[i+1])%n
			if u == v || linked[[2]int{u, v}] {
				continue
			}
			linked[[2]int{u, v}], linked[[2]int{v, u}] = true, true
			adj[u] = append(adj[u], v)
			adj[v] = append(adj[v], u)
		}
		checkRoutes(t, "fuzz", adj)
	})
}

func TestRoutesOutOfRange(t *testing.T) {
	r := ComputeRoutes(Chain(3, 10).Adjacency())
	for _, q := range [][2]int{{0, 3}, {3, 0}, {-1, 1}, {1, -1}, {7, 7}} {
		if _, ok := r.NextHop(q[0], q[1]); ok {
			t.Fatalf("NextHop(%d,%d) found a route", q[0], q[1])
		}
		if h := r.Hops(q[0], q[1]); h != -1 {
			t.Fatalf("Hops(%d,%d) = %d, want -1", q[0], q[1], h)
		}
	}
	empty := ComputeRoutes(nil)
	if _, ok := empty.NextHop(0, 0); ok || empty.Hops(0, 0) != -1 {
		t.Fatal("empty graph routed")
	}
}

// A fleet's device ↔ border-router routes must cost no state beyond node
// 0's hop counts, next hops and parents and the topology's cell grid,
// built once: the per-destination columns this replaced held 39 MB here.
func TestFleetRoutesStateBudget(t *testing.T) {
	const nodes, flows = 10000, 500
	topo := RandomGeometric(nodes, 16, 1)
	follow := func(r *Routes, from, to int) {
		for at, hops := from, 0; at != to; hops++ {
			next, ok := r.NextHop(at, to)
			if !ok || hops > nodes {
				t.Fatalf("no route %d -> %d (at %d)", from, to, at)
			}
			at = next
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r := topo.Routes()
	for id := 1; id < nodes; id += nodes / flows {
		follow(r, id, 0)
		follow(r, 0, id)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(r)
	if len(r.cols) != 0 {
		t.Fatalf("%d whole-graph columns built for device <-> border routes", len(r.cols))
	}
	if held := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); held >= 1<<20 {
		t.Fatalf("Routes holds %d KiB live after %d routes, budget 1 MiB", held>>10, flows)
	}
	if b := r.Bytes(); b >= 512<<10 {
		t.Fatalf("Routes counts %d KiB, want under 512", b>>10)
	}
}

// Building a network's routes allocates what they keep and one BFS queue,
// not an adjacency list: under 512 KiB for the metro_10k-sized field,
// whose adjacency alone is 3.6 MB. Each build is measured three times and
// the least taken, so an allocation of the runtime's own cannot fail it.
func TestTopologyRoutesBuildBytes(t *testing.T) {
	topo := RandomGeometric(10000, 16, 1)
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		r := topo.Routes()
		runtime.ReadMemStats(&m1)
		runtime.KeepAlive(r)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	if least >= 512<<10 {
		t.Fatalf("building the routes of 10 000 nodes allocates %d KiB, budget 512", least>>10)
	}
}

// sameRoutes fails where got and want, asked the same pairs in the same
// order, differ in NextHop or Hops.
func sameRoutes(t *testing.T, name string, got, want *Routes, pairs [][2]int) {
	t.Helper()
	for _, q := range pairs {
		src, dst := q[0], q[1]
		gh, gok := got.NextHop(src, dst)
		wh, wok := want.NextHop(src, dst)
		if gok != wok || gh != wh {
			t.Fatalf("%s: NextHop(%d,%d) = %d,%v, over the adjacency %d,%v", name, src, dst, gh, gok, wh, wok)
		}
		if g, w := got.Hops(src, dst), want.Hops(src, dst); g != w {
			t.Fatalf("%s: Hops(%d,%d) = %d, over the adjacency %d", name, src, dst, g, w)
		}
	}
}

// allPairs lists every (src, dst) of n nodes, out-of-range ids on both
// sides included.
func allPairs(n int) [][2]int {
	var pairs [][2]int
	for dst := -1; dst <= n; dst++ {
		for src := -1; src <= n; src++ {
			pairs = append(pairs, [2]int{src, dst})
		}
	}
	return pairs
}

// fleetPairs lists every node to node 0 and back, then sampled pairs off
// node 0's tree: a few destinations, each from many sources.
func fleetPairs(n int, seed int64) [][2]int {
	var pairs [][2]int
	for v := 0; v < n; v++ {
		pairs = append(pairs, [2]int{v, 0}, [2]int{0, v})
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		dst := rng.Intn(n)
		for j := 0; j < 50; j++ {
			pairs = append(pairs, [2]int{rng.Intn(n), dst})
		}
	}
	return pairs
}

// checkTopologyRoutes compares topo's routes with those over its
// adjacency on every pair if topo is small, on fleetPairs if not.
func checkTopologyRoutes(t *testing.T, name string, topo Topology, seed int64) {
	t.Helper()
	var pairs [][2]int
	if topo.N() <= 300 {
		pairs = allPairs(topo.N())
	} else {
		pairs = fleetPairs(topo.N(), seed)
	}
	sameRoutes(t, name, topo.Routes(), ComputeRoutes(topo.Adjacency()), pairs)
}

// A network's routes, built from its positions, must be the routes over
// its adjacency: on every topology kind and edge case of the range
// relation, and on random fields from thin to dense.
func TestTopologyRoutesMatchAdjacency(t *testing.T) {
	for name, topo := range edgeTopologies() {
		checkTopologyRoutes(t, name, topo, 1)
	}
	sizes := []int{150, 3000}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, density := range []float64{2.5, 4, 6, 10, 16, 25, 40} {
		for _, n := range sizes {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("random n=%d density=%g seed=%d", n, density, seed)
				checkTopologyRoutes(t, name, RandomGeometric(n, density, seed), seed)
			}
		}
	}
}

// topologyBytes encodes topo for FuzzTopologyRoutes, scaled down by a
// whole factor until it fits: the range in half-metres, then each point's
// coordinates in half-metres as signed bytes.
func topologyBytes(topo Topology) []byte {
	scale := 1.0
	for _, p := range topo.Positions {
		scale = max(scale, math.Ceil(math.Abs(p.X)/63.5), math.Ceil(math.Abs(p.Y)/63.5))
	}
	scale = max(scale, math.Ceil(topo.TxRange/127.5))
	half := func(v float64) float64 { return math.Round(2 * v / scale) }
	b := []byte{byte(half(topo.TxRange))}
	for _, p := range topo.Positions[:min(len(topo.Positions), 64)] {
		b = append(b, byte(int8(half(p.X))), byte(int8(half(p.Y))))
	}
	return b
}

// FuzzTopologyRoutes decodes bytes into 2 to 64 points and a range: the
// first byte is the range and each following pair a point, all in
// half-metres, points signed (a missing coordinate is 0). The routes built
// from the positions must be the routes over the adjacency on every pair.
// Seeds: the topologies of edgeTopologies.
func FuzzTopologyRoutes(f *testing.F) {
	topos := edgeTopologies()
	names := make([]string, 0, len(topos))
	for name := range topos {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(topologyBytes(topos[name]))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		at := func(i int) float64 {
			if i < len(b) {
				return float64(int8(b[i])) / 2
			}
			return 0
		}
		topo := Topology{TxRange: float64(b[0]) / 2}
		for i := 1; len(topo.Positions) < min(max((len(b)-1)/2, 2), 64); i += 2 {
			topo.Positions = append(topo.Positions, phy.Point{X: at(i), Y: at(i + 1)})
		}
		sameRoutes(t, "fuzz", topo.Routes(), ComputeRoutes(topo.Adjacency()), allPairs(topo.N()))
	})
}

// positionDigest is SHA-256 over the little-endian Float64bits of every
// (X, Y), first 8 bytes.
func positionDigest(t Topology) string {
	h := sha256.New()
	var b [16]byte
	for _, p := range t.Positions {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.X))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Positions are pinned to what the all-pairs accept scan placed, bit for
// bit. The sparse cases take the 100-rejections fallback branch (127
// times at density 1.5), which also puts points outside the square.
func TestRandomGeometricPositionPins(t *testing.T) {
	for _, c := range []struct {
		n       int
		density float64
		seed    int64
		want    string
	}{
		{10000, 16, 1, "e6a03b843bcfa4a9"},
		{1000, 8, 1, "db58e95078cbeb05"},
		{300, 2, 5, "c5706697ed48a65e"},
		{2000, 1.5, 9, "62a5db906e704a16"},
		{50, 0.5, 3, "3bef59c7d3292144"},
	} {
		name := fmt.Sprintf("n=%d density=%g seed=%d", c.n, c.density, c.seed)
		if got := positionDigest(RandomGeometric(c.n, c.density, c.seed)); got != c.want {
			t.Errorf("%s: position digest %s, want %s", name, got, c.want)
		}
	}
}
