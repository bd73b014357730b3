package mesh

// Routes holds shortest-path forwarding state over the connectivity
// graph. The paper uses OpenThread's routing but explicitly studies TCP,
// not routing (§5); static shortest-path routes preserve the data-plane
// behaviour while keeping experiments reproducible (the paper likewise
// pins routes "for experimental consistency", §9.5).
//
// The state is rooted at the border router, node 0, because the traffic
// is: every fleet flow is device ↔ border router. One BFS from node 0
// gives each node's hop count up[v], which routes upward, and its parent
// par[v], the node that first reached it, which routes downward. A
// whole-graph hop-count column per destination is computed only for a
// query whose source is not on the destination's parent chain (any-to-any
// pairs on small hand-built topologies). Next hops are never stored.
//
// The route from src to dst always continues with the first neighbour, in
// adjacency order, that is one hop closer to dst. Upward that is the first
// neighbour with up one lower. Downward, let v lie on a shortest 0–d path,
// so dist(v,d) = up[d]-up[v]. A neighbour w is one hop closer to d exactly
// when it is one level deeper and on a shortest 0–d path (the triangle
// inequality up[d] <= up[w] + dist(w,d) rules out every other level). So
// from node 0 the rule takes the lexicographically first shortest path to
// d, by adjacency position, and the parent chain is that path: FIFO order
// dequeues each level in the lexicographic order of its nodes' first paths
// (by induction on the level), so the parent that first reaches v is its
// neighbour one level up with the first path. The argument needs dist to
// be symmetric: adj must be an undirected graph, which Topology.Adjacency
// always is.
//
// Like the simulation engine it serves, Routes is single-goroutine state.
type Routes struct {
	adj [][]int
	up  []int32 // up[v] = hop count from v to node 0, -1 unreachable
	par []int32 // par[v] = the node that first reached v in the BFS from node 0

	dist map[int][]int32 // dist[d][v] = hop count from v to d, for sources off d's parent chain

	queue []int32 // BFS scratch
}

// ComputeRoutes prepares shortest-path routing over the undirected graph
// adj. Only node 0's hop counts and parents are computed here; a
// destination's column is built on first use.
func ComputeRoutes(adj [][]int) *Routes {
	r := &Routes{adj: adj, dist: map[int][]int32{}}
	if len(adj) > 0 {
		r.par = make([]int32, len(adj))
		r.up = r.bfs(0, r.par)
	}
	return r
}

// bfs returns every node's hop count to from, -1 where unreachable. A
// non-nil par receives each reached node's discoverer.
func (r *Routes) bfs(from int, par []int32) []int32 {
	dist := make([]int32, len(r.adj))
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := append(r.queue[:0], int32(from))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, nb := range r.adj[v] {
			if dist[nb] < 0 {
				dist[nb] = dist[v] + 1
				if par != nil {
					par[nb] = v
				}
				queue = append(queue, int32(nb))
			}
		}
	}
	r.queue = queue
	return dist
}

// closer returns v's first neighbour, in adjacency order, whose hop count
// in dist is one lower than v's.
func (r *Routes) closer(v int, dist []int32) (int, bool) {
	want := dist[v] - 1
	if want < 0 {
		return 0, false
	}
	for _, nb := range r.adj[v] {
		if dist[nb] == want {
			return nb, true
		}
	}
	return 0, false
}

// column returns every node's hop count to dst, running the whole-graph
// BFS on first use.
func (r *Routes) column(dst int) []int32 {
	dist, ok := r.dist[dst]
	if !ok {
		dist = r.bfs(dst, nil)
		r.dist[dst] = dist
	}
	return dist
}

func (r *Routes) valid(id int) bool { return id >= 0 && id < len(r.adj) }

// NextHop returns the next node on the path from src to dst.
func (r *Routes) NextHop(src, dst int) (int, bool) {
	switch {
	case !r.valid(src) || !r.valid(dst) || src == dst:
		return 0, false
	case dst == 0:
		return r.closer(src, r.up)
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
	return r.closer(src, r.column(dst))
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
	return int(r.column(dst)[src])
}
