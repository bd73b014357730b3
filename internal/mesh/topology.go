// Package mesh provides topologies, shortest-path route computation, and
// the RED active queue management used in the paper's experiments: chains
// for the hop-count studies (§7), a 15-node office layout standing in for
// the Fig. 3 testbed, and Thread-style role assignment (border router,
// always-on routers, sleepy leaves).
package mesh

import (
	"math"
	"math/rand"

	"tcplp/internal/phy"
)

// Topology is a set of node positions plus the radio ranges that induce
// the connectivity graph.
type Topology struct {
	Positions  []phy.Point
	TxRange    float64
	SenseRange float64
}

// N returns the number of nodes.
func (t Topology) N() int { return len(t.Positions) }

// Chain places n nodes on a line with the given spacing; the decode range
// covers exactly one hop and the sense range likewise, so non-adjacent
// nodes are hidden terminals — the §7.1 configuration.
func Chain(n int, spacing float64) Topology {
	pos := make([]phy.Point, n)
	for i := range pos {
		pos[i] = phy.Point{X: float64(i) * spacing}
	}
	return Topology{
		Positions:  pos,
		TxRange:    spacing * 1.25,
		SenseRange: spacing * 1.25,
	}
}

// Star places n-1 nodes in a circle around node 0.
func Star(n int, radius float64) Topology {
	pos := make([]phy.Point, n)
	for i := 1; i < n; i++ {
		angle := 2 * math.Pi * float64(i-1) / float64(n-1)
		pos[i] = phy.Point{X: radius * math.Cos(angle), Y: radius * math.Sin(angle)}
	}
	return Topology{Positions: pos, TxRange: radius * 1.2, SenseRange: radius * 1.2}
}

// TwinLeaf builds the Table 9 / Appendix A layouts: a relay path of
// pathHops hops from the border router (node 0) to a shared last relay,
// with two leaves (the last two node ids) hanging off it. Both leaves
// reach the border in pathHops hops and contend for the same relay
// path — the paper's two-flow fairness configuration.
func TwinLeaf(pathHops int, spacing float64) Topology {
	var pos []phy.Point
	for i := 0; i <= pathHops-1; i++ {
		pos = append(pos, phy.Point{X: float64(i) * spacing})
	}
	relayX := float64(pathHops-1) * spacing
	pos = append(pos,
		phy.Point{X: relayX + spacing*0.9, Y: +spacing * 0.35},
		phy.Point{X: relayX + spacing*0.9, Y: -spacing * 0.35},
	)
	return Topology{Positions: pos, TxRange: spacing * 1.25, SenseRange: spacing * 1.25}
}

// Office is a 15-node layout standing in for the paper's office testbed
// (Fig. 3): node 0 is the border router at one end; nodes 11-14 (the
// anemometer stand-ins) sit 3-5 hops away at the far end, matching the
// "-8 dBm transmission power" topology of §9.2. Distances are in meters;
// the default ranges give uplink routes of 3-5 hops for the far nodes.
func Office() Topology {
	pos := []phy.Point{
		{X: 0, Y: 3},    // 0: border router
		{X: 5, Y: 1},    // 1
		{X: 5, Y: 6},    // 2
		{X: 10, Y: 3},   // 3
		{X: 14, Y: 7},   // 4
		{X: 15, Y: 1},   // 5
		{X: 19, Y: 4},   // 6
		{X: 23, Y: 8},   // 7
		{X: 24, Y: 2},   // 8
		{X: 28, Y: 5},   // 9
		{X: 32, Y: 1},   // 10
		{X: 33, Y: 8},   // 11: anemometer
		{X: 36, Y: 4},   // 12: anemometer
		{X: 38, Y: 8.5}, // 13: anemometer
		{X: 39, Y: 1},   // 14: anemometer
	}
	return Topology{Positions: pos, TxRange: 10, SenseRange: 13}
}

// DefaultDensity is the mean node degree RandomGeometric aims for when
// given none.
const DefaultDensity = 6

// RandomGeometric places n nodes uniformly in a square sized so the
// expected node degree is density (DefaultDensity if not positive), with
// node 0 (the border router) at the
// center. Placement is deterministic in seed. Each node is guaranteed a
// decode-range neighbor among the nodes placed before it, so the topology
// is always connected: samples with no neighbor are rejected, and after
// repeated rejections the node is dropped next to an already-placed one —
// the physical analogue of an installer moving a sensor into coverage.
func RandomGeometric(n int, density float64, seed int64) Topology {
	const txRange, senseRange = 10.0, 13.0
	if density <= 0 {
		density = DefaultDensity
	}
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(n) * math.Pi * txRange * txRange / density)
	if side < txRange {
		side = txRange
	}
	pos := make([]phy.Point, 0, n)
	grid := phy.NewCellGrid(txRange, n)
	place := func(p phy.Point) {
		grid.Add(len(pos), p)
		pos = append(pos, p)
	}
	place(phy.Point{X: side / 2, Y: side / 2})
	for len(pos) < n {
		placed := false
		for try := 0; try < 100 && !placed; try++ {
			p := phy.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		walk:
			for _, id := range grid.Near(p) {
				for ; id >= 0; id = grid.Next(id) {
					if placed = p.Within(pos[id], txRange); placed {
						place(p)
						break walk
					}
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
	return Topology{Positions: pos, TxRange: txRange, SenseRange: senseRange}
}

// Routes computes the network's routes (see Routes) straight from the
// positions: neighbours are found through a cell grid at TxRange as the
// BFS reaches each node, so no adjacency list is built. The routes are
// those of ComputeRoutes(t.Adjacency()), and the grid they keep for
// per-destination columns is about 10 bytes a node.
func (t Topology) Routes() *Routes {
	r := &Routes{pos: t.Positions, rng: t.TxRange}
	if t.N() > 0 && t.TxRange > 0 {
		r.grid = phy.NewCellGrid(t.TxRange, t.N())
		for i, p := range t.Positions {
			r.grid.Add(i, p)
		}
	}
	return r.fromRoot(t.N())
}

// Adjacency returns the connectivity graph under the unit-disk decode
// range: adj[i] lists, in id order, every other node within TxRange of
// node i (nil if none). Each pair is tested once, from its lower id,
// against the ids above it that the grid holds around it, so the cost is
// O(n·degree) rather than all-pairs. The lists are one backing array of
// fewer than 2^31 entries, each capped at its length so that an append to
// one cannot run into the next.
func (t Topology) Adjacency() [][]int {
	n := t.N()
	adj := make([][]int, n)
	if n == 0 || t.TxRange <= 0 {
		return adj
	}
	grid := phy.NewCellGrid(t.TxRange, n)
	for i, p := range t.Positions {
		grid.Add(i, p)
	}
	// First walk: test each pair, keep the answer as a bit in walk order,
	// count degrees. Nothing branches on an answer (in is 0 or 1): which
	// way a pair falls is not predictable.
	degree, links := make([]int32, n), 0
	linked, walked := make([]uint64, 0, n), uint(0)
	for i, p := range t.Positions {
		for _, j := range grid.Near(p) {
			for ; j > int32(i); j = grid.Next(j) {
				if walked%64 == 0 {
					linked = append(linked, 0)
				}
				var in int32
				if p.Within(t.Positions[j], t.TxRange) {
					in = 1
				}
				linked[walked/64] |= uint64(in) << (walked % 64)
				walked++
				degree[i] += in
				degree[j] += in
				links += int(in)
			}
		}
	}
	// Hand out the lists; from here at[i] is where list i's next entry
	// goes, and a pair out of range writes to the spare last slot.
	nbrs, spare := make([]int, 2*links+1), int32(2*links)
	at, start := degree, int32(0)
	for i, d := range degree {
		if d > 0 {
			adj[i] = nbrs[start : start+d : start+d]
		}
		at[i], start = start, start+d
	}
	// Second walk, reading the bits: i goes into each higher neighbour's
	// list, so every list's lower part fills in id order.
	walked = 0
	for i, p := range t.Positions {
		for _, j := range grid.Near(p) {
			for ; j > int32(i); j = grid.Next(j) {
				in := int32(linked[walked/64] >> (walked % 64) & 1)
				walked++
				k := at[j]
				if in == 0 {
					k = spare
				}
				nbrs[k] = i
				at[j] += in
			}
		}
	}
	// Higher parts: list j, read while it holds only its lower part,
	// writes j into each of those lists in turn, so they fill in id order.
	start = 0
	for j := range adj {
		for _, i := range nbrs[start:at[j]] {
			nbrs[at[i]] = j
			at[i]++
		}
		start += int32(len(adj[j]))
	}
	return adj
}
