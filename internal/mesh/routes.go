package mesh

import (
	"slices"

	"tcplp/internal/phy"
)

// Routes holds shortest-path forwarding state over the connectivity
// graph. The paper uses OpenThread's routing but explicitly studies TCP,
// not routing (§5); static shortest-path routes preserve the data-plane
// behaviour while keeping experiments reproducible (the paper likewise
// pins routes "for experimental consistency", §9.5).
//
// The state is rooted at the border router, node 0, because the traffic
// is: every fleet flow is device ↔ border router. One BFS from node 0
// gives each node's hop count up[v], its next hop upward upNext[v], and
// its parent par[v], the node that first reached it, which routes
// downward. A whole-graph column per destination (hop counts and next
// hops) is computed only for a query whose source is not on the
// destination's parent chain (any-to-any pairs on small hand-built
// topologies).
//
// Neighbours come from one of two sources, read by the same BFS. A
// network's routes (Topology.Routes) take them from the positions through
// a phy.CellGrid at the decode range, each node's on demand: no adjacency
// list is built. Routes over an explicit graph (ComputeRoutes) read its
// lists. Either way a node's neighbours are scanned in no particular
// order, and the BFS is made to run in id order instead: the nodes a node
// newly reaches — a set the scan order does not change — join the queue
// sorted by id, exactly where a scan of id-ordered lists would put them.
//
// The route from src to dst always continues with the first neighbour, in
// id order, that is one hop closer to dst. Upward that is the first
// neighbour with up one lower: upNext[v], known when the BFS dequeues v,
// since by then every node one level up has been reached. Downward, let v
// lie on a shortest 0–d path, so dist(v,d) = up[d]-up[v]. A neighbour w is
// one hop closer to d exactly when it is one level deeper and on a
// shortest 0–d path (the triangle inequality up[d] <= up[w] + dist(w,d)
// rules out every other level). So from node 0 the rule takes the
// lexicographically first shortest path to d, by id, and the parent chain
// is that path: FIFO order dequeues each level in the lexicographic order
// of its nodes' first paths (by induction on the level), so the parent
// that first reaches v is its neighbour one level up with the first path.
// The argument needs dist to be symmetric: the graph must be undirected,
// which a topology's range relation always is. Topology.Adjacency lists
// are in id order, so over them "first in id order" is also "first in
// list order".
//
// Like the simulation engine it serves, Routes is single-goroutine state.
type Routes struct {
	// adj is the explicit graph of ComputeRoutes, nil for a topology's
	// routes, which read pos within rng through grid (nil when nothing is
	// in range of anything).
	adj  [][]int
	pos  []phy.Point
	rng  float64
	grid *phy.CellGrid

	up     []int32 // up[v] = hop count from v to node 0, -1 unreachable
	upNext []int32 // upNext[v] = v's next hop to node 0, -1 for node 0 and unreachable nodes
	par    []int32 // par[v] = the node that first reached v in the BFS from node 0

	cols map[int]column // per destination, for sources off its parent chain
}

// column is every node's hop count to one destination and its next hop
// there (-1 for the destination itself and for unreachable nodes).
type column struct{ dist, next []int32 }

// ComputeRoutes prepares shortest-path routing over the undirected graph
// adj, whose lists may be in any order. Only node 0's state is computed
// here; a destination's column is built on first use.
func ComputeRoutes(adj [][]int) *Routes {
	return (&Routes{adj: adj}).fromRoot(len(adj))
}

// fromRoot runs the BFS from node 0 over n nodes and returns r.
func (r *Routes) fromRoot(n int) *Routes {
	if n > 0 {
		r.up, r.upNext, r.par = make([]int32, n), make([]int32, n), make([]int32, n)
		r.bfs(0, column{r.up, r.upNext}, r.par)
	}
	return r
}

// candidates appends to buf every node that may be v's neighbour, in no
// particular order: an explicit graph's list, or the ids the grid holds
// around v, which linked then tests.
func (r *Routes) candidates(buf []int32, v int32) []int32 {
	if r.adj != nil {
		for _, w := range r.adj[v] {
			buf = append(buf, int32(w))
		}
		return buf
	}
	if r.grid == nil {
		return buf
	}
	for _, w := range r.grid.Near(r.pos[v]) {
		for ; w >= 0; w = r.grid.Next(w) {
			if w != v {
				buf = append(buf, w)
			}
		}
	}
	return buf
}

// linked reports whether candidate w of v is its neighbour.
func (r *Routes) linked(v, w int32) bool {
	return r.grid == nil || r.pos[v].Within(r.pos[w], r.rng)
}

// bfs fills c with every node's hop count to from and its first
// neighbour in id order one hop closer. A non-nil par receives each
// reached node's discoverer. Only a candidate that is unreached or one
// level up is tested for range: the others change nothing.
func (r *Routes) bfs(from int, c column, par []int32) {
	for i := range c.dist {
		c.dist[i], c.next[i] = -1, -1
	}
	c.dist[from] = 0
	queue := make([]int32, 1, len(c.dist))
	queue[0] = int32(from)
	nbrs := make([]int32, 0, 64)
	for head := 0; head < len(queue); head++ {
		v, tail, best := queue[head], len(queue), int32(-1)
		up := c.dist[v] - 1
		nbrs = r.candidates(nbrs[:0], v)
		for _, w := range nbrs {
			switch d := c.dist[w]; {
			case d < 0:
				if r.linked(v, w) {
					c.dist[w] = c.dist[v] + 1
					if par != nil {
						par[w] = v
					}
					queue = append(queue, w)
				}
			case d == up && (best < 0 || w < best) && r.linked(v, w):
				best = w
			}
		}
		c.next[v] = best
		slices.Sort(queue[tail:])
	}
}

// column returns every node's hop count and next hop to dst, running the
// whole-graph BFS on first use.
func (r *Routes) column(dst int) column {
	c, ok := r.cols[dst]
	if !ok {
		c = column{make([]int32, len(r.up)), make([]int32, len(r.up))}
		r.bfs(dst, c, nil)
		if r.cols == nil {
			r.cols = map[int]column{}
		}
		r.cols[dst] = c
	}
	return c
}

func (r *Routes) valid(id int) bool { return id >= 0 && id < len(r.up) }

// hop turns a stored next hop into NextHop's answer.
func hop(next int32) (int, bool) { return int(next), next >= 0 }

// NextHop returns the next node on the path from src to dst.
func (r *Routes) NextHop(src, dst int) (int, bool) {
	switch {
	case !r.valid(src) || !r.valid(dst) || src == dst:
		return 0, false
	case dst == 0:
		return hop(r.upNext[src])
	case (r.up[src] < 0) != (r.up[dst] < 0):
		return 0, false // node 0 reaches one and not the other
	}
	if level := r.up[src]; level >= 0 && level < r.up[dst] {
		// dst's ancestor one level below src is the next hop if src is
		// its parent.
		at := int32(dst)
		for r.up[at] > level+1 {
			at = r.par[at]
		}
		if r.par[at] == int32(src) {
			return int(at), true
		}
	}
	return hop(r.column(dst).next[src])
}

// Hops returns the path length from src to dst (-1 if unreachable or
// either id is out of range).
func (r *Routes) Hops(src, dst int) int {
	switch {
	case !r.valid(src) || !r.valid(dst):
		return -1
	case src == dst:
		return 0
	case dst == 0:
		return int(r.up[src])
	case src == 0:
		return int(r.up[dst])
	case (r.up[src] < 0) != (r.up[dst] < 0):
		return -1
	}
	return int(r.column(dst).dist[src])
}

// Bytes is the memory r holds: node 0's hop counts, next hops and
// parents, a topology's cell grid, and every column built so far. An
// explicit graph is its caller's and is not counted.
func (r *Routes) Bytes() int {
	b := 4 * (cap(r.up) + cap(r.upNext) + cap(r.par))
	if r.grid != nil {
		b += r.grid.Bytes()
	}
	for _, c := range r.cols {
		b += 4 * (cap(c.dist) + cap(c.next))
	}
	return b
}
