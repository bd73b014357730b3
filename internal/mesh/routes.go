package mesh

// Routes holds shortest-path forwarding state over the connectivity
// graph. The paper uses OpenThread's routing but explicitly studies TCP,
// not routing (§5); static shortest-path routes preserve the data-plane
// behaviour while keeping experiments reproducible (the paper likewise
// pins routes "for experimental consistency", §9.5).
//
// The state is rooted at the border router, node 0, because the traffic
// is: every fleet flow is device ↔ border router. One BFS from node 0
// gives each node's hop count up[v], and that alone routes upward. A
// downward route 0 → d is cached as its up[d]+1 nodes, found without
// visiting the rest of the graph. A whole-graph hop-count column per
// destination is computed only for a query whose source does not lie on
// that cached route (any-to-any pairs on small hand-built topologies).
// Next hops are never stored: they are read off the hop counts.
//
// The route from src to dst always continues with the first neighbour, in
// adjacency order, that is one hop closer to dst. Upward that is the first
// neighbour with up one lower. Downward, lens(d) = {v : up[v] + dist(v,d)
// = up[d]} is the set of nodes on some shortest 0–d path; it is reached by
// walking back from d through neighbours whose up drops by one. For v in
// lens(d), a neighbour w is one hop closer to d exactly when w is in
// lens(d) and up[w] = up[v]+1: such a w has dist(w,d) = up[d]-up[w] =
// dist(v,d)-1; conversely dist(w,d) = dist(v,d)-1 and the triangle
// inequality up[d] <= up[w] + dist(w,d) give up[w] >= up[v]+1, a neighbour
// cannot be more than one level deeper, and then up[w] + dist(w,d) =
// up[d]. So "first lens neighbour one level deeper" picks the node a BFS
// from d would. The argument needs dist to be symmetric: adj must be an
// undirected graph, which Topology.Adjacency always is.
//
// Like the simulation engine it serves, Routes is single-goroutine state.
type Routes struct {
	adj [][]int
	up  []int32 // up[v] = hop count from v to node 0, -1 unreachable

	down map[int][]int32 // down[d][i] = the node i hops from node 0 on the route to d
	lens []int32         // lens[v] = d+1 once v is known to be on a shortest 0–d path
	dist map[int][]int32 // dist[d][v] = hop count from v to d, for sources off down[d]

	queue []int32 // BFS scratch
}

// ComputeRoutes prepares shortest-path routing over the undirected graph
// adj. Only node 0's hop counts are computed here; per-destination state
// is built on first use.
func ComputeRoutes(adj [][]int) *Routes {
	r := &Routes{
		adj:  adj,
		down: map[int][]int32{},
		lens: make([]int32, len(adj)),
		dist: map[int][]int32{},
	}
	if len(adj) > 0 {
		r.up = r.bfs(0)
	}
	return r
}

// bfs returns every node's hop count to from, -1 where unreachable.
func (r *Routes) bfs(from int) []int32 {
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

// route returns the cached route from node 0 to d, which node 0 must
// reach, building it on first use.
func (r *Routes) route(d int) []int32 {
	if path, ok := r.down[d]; ok {
		return path
	}
	// Mark lens(d): back from d, level by level.
	mark := int32(d) + 1
	r.lens[d] = mark
	queue := append(r.queue[:0], int32(d))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, nb := range r.adj[v] {
			if r.up[nb] == r.up[v]-1 && r.lens[nb] != mark {
				r.lens[nb] = mark
				queue = append(queue, int32(nb))
			}
		}
	}
	r.queue = queue
	// Walk down from node 0 through the lens.
	path := make([]int32, r.up[d]+1)
	for at, i := 0, 1; i < len(path); i++ {
		for _, nb := range r.adj[at] {
			if r.lens[nb] == mark && r.up[nb] == int32(i) {
				at = nb
				break
			}
		}
		path[i] = int32(at)
	}
	r.down[d] = path
	return path
}

// column returns every node's hop count to dst, running the whole-graph
// BFS on first use.
func (r *Routes) column(dst int) []int32 {
	dist, ok := r.dist[dst]
	if !ok {
		dist = r.bfs(dst)
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
		if path := r.route(dst); path[level] == int32(src) {
			return int(path[level+1]), true
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

// Parent returns a leaf's next hop toward the border router — its Thread
// parent.
func (r *Routes) Parent(leaf, border int) (int, bool) {
	return r.NextHop(leaf, border)
}
