package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChainTopology(t *testing.T) {
	topo := Chain(5, 10)
	if topo.N() != 5 {
		t.Fatalf("n = %d", topo.N())
	}
	adj := topo.Adjacency()
	// Each interior node has exactly two neighbors; ends have one.
	if len(adj[0]) != 1 || len(adj[4]) != 1 {
		t.Fatalf("chain ends: %v %v", adj[0], adj[4])
	}
	for i := 1; i < 4; i++ {
		if len(adj[i]) != 2 {
			t.Fatalf("interior node %d neighbors: %v", i, adj[i])
		}
	}
}

func TestStarTopology(t *testing.T) {
	topo := Star(6, 10)
	adj := topo.Adjacency()
	if len(adj[0]) != 5 {
		t.Fatalf("hub neighbors = %d", len(adj[0]))
	}
}

func TestShortestPathRoutes(t *testing.T) {
	topo := Chain(6, 10)
	r := ComputeRoutes(topo.Adjacency())
	if h := r.Hops(5, 0); h != 5 {
		t.Fatalf("hops = %d", h)
	}
	// Follow next hops from 5 to 0 — must be the descending chain.
	at := 5
	for want := 4; want >= 0; want-- {
		nh, ok := r.NextHop(at, 0)
		if !ok || nh != want {
			t.Fatalf("next hop from %d = %d,%v want %d", at, nh, ok, want)
		}
		at = nh
	}
	if h := r.Hops(3, 3); h != 0 {
		t.Fatalf("self hops = %d", h)
	}
	if _, ok := r.NextHop(0, 99); ok {
		t.Fatal("route to nonexistent node")
	}
}

func TestDisconnectedGraph(t *testing.T) {
	adj := [][]int{{1}, {0}, {3}, {2}} // two islands
	r := ComputeRoutes(adj)
	if _, ok := r.NextHop(0, 3); ok {
		t.Fatal("route across disconnected islands")
	}
	if r.Hops(0, 3) != -1 {
		t.Fatalf("hops across islands = %d", r.Hops(0, 3))
	}
}

// Property: following next hops from any node always reaches the
// destination in exactly Hops steps.
func TestQuickRoutesReachability(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%12) + 3
		rng := rand.New(rand.NewSource(seed))
		// Random connected graph: a ring plus extra edges.
		adj := make([][]int, n)
		addEdge := func(a, b int) {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
		for i := 0; i < n; i++ {
			addEdge(i, (i+1)%n)
		}
		for k := 0; k < n/2; k++ {
			addEdge(rng.Intn(n), rng.Intn(n))
		}
		r := ComputeRoutes(adj)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				at := src
				steps := 0
				for at != dst {
					nh, ok := r.NextHop(at, dst)
					if !ok || steps > n {
						return false
					}
					at = nh
					steps++
				}
				if steps != r.Hops(src, dst) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestREDBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewRED()
	// Below the minimum threshold: always pass.
	for i := 0; i < 100; i++ {
		if r.OnArrival(0, false, rng) != REDPass {
			t.Fatal("drop below the minimum threshold")
		}
	}
	// Far above the maximum threshold: always drop (not ECN-capable).
	r2 := NewRED()
	drops := 0
	for i := 0; i < 100; i++ {
		if r2.OnArrival(20, false, rng) == REDDrop {
			drops++
		}
	}
	if drops < 90 {
		t.Fatalf("above the maximum threshold drops = %d/100", drops)
	}
	// Between thresholds: probabilistic.
	r3 := NewRED()
	mid := 0
	for i := 0; i < 2000; i++ {
		if r3.OnArrival(4, false, rng) == REDDrop {
			mid++
		}
	}
	if mid == 0 || mid == 2000 {
		t.Fatalf("mid-range drops = %d/2000, want probabilistic", mid)
	}
}

func TestREDMarksWithECN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := NewRED()
	marks, drops := 0, 0
	for i := 0; i < 100; i++ {
		switch r.OnArrival(20, true, rng) {
		case REDMark:
			marks++
		case REDDrop:
			drops++
		}
	}
	if marks == 0 {
		t.Fatal("ECN-capable packets never marked")
	}
	if drops != 0 {
		t.Fatalf("ECN-capable packets dropped %d times", drops)
	}
	// Non-ECT packets still get dropped.
	if r.OnArrival(20, false, rng) == REDMark {
		t.Fatal("non-ECT packet marked")
	}
}

// Property: the RED average tracks into [min(q), max(q)] territory and
// never produces a verdict other than the three defined.
func TestQuickREDAverageBounded(t *testing.T) {
	f := func(seed int64, lens []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRED()
		for _, l := range lens {
			q := int(l % 32)
			switch r.OnArrival(q, l%3 == 0, rng) {
			case REDPass, REDMark, REDDrop:
			default:
				return false
			}
			if r.AvgQueue() < 0 || r.AvgQueue() > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOfficeHopBand(t *testing.T) {
	topo := Office()
	r := ComputeRoutes(topo.Adjacency())
	for _, id := range []int{11, 12, 13, 14} {
		if h := r.Hops(id, 0); h < 3 || h > 5 {
			t.Fatalf("office node %d at %d hops", id, h)
		}
	}
}
