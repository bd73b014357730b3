package stack_test

import (
	"runtime"
	"testing"
	"unsafe"

	"tcplp/internal/mesh"
	"tcplp/internal/stack"
)

// TestIdleNodeFootprint pins the heap cost of an idle node at city
// scale. Most of a 10k-node metro deployment is idle at any instant, so
// construction-time allocation per node is what bounds how large a
// topology fits in memory. The budget reflects dormancy ("Dormancy" in
// the package comment): out of New a node is its slot in the node slab,
// its radio's slot in the channel's, one method value, its position, and
// its entries in the int32 route tables and the routes' cell grid (no
// adjacency list is built); MAC, TCP, UDP and the packet
// path's state wait for the node's first frame or socket. Regressions
// that re-introduce eager per-node state show up as a burst well above
// the bound.
func TestIdleNodeFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node construction in -short mode")
	}
	const n = 10000
	topo := mesh.RandomGeometric(n, 16, 1)

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}

	before := heap()
	net := stack.New(1, topo, stack.DefaultOptions())
	perNode := float64(heap()-before) / n

	// Keep the network alive past the measurement.
	if len(net.Nodes) != n {
		t.Fatalf("built %d nodes, want %d", len(net.Nodes), n)
	}

	// Measured 399 B/node under go 1.24: 706 while New built the
	// adjacency list to route over, 1 082 while the slot held the packet
	// state and the radio its own receive buffer, 2 066 when New built
	// every node's MAC, TCP and UDP stacks. Eager per-node state of any
	// kind costs a hundred bytes or more per node.
	const maxBytesPerNode = 550
	t.Logf("idle footprint: %.0f B/node (%d nodes)", perNode, n)
	if perNode > maxBytesPerNode {
		t.Fatalf("idle footprint = %.0f B/node, budget %d", perNode, maxBytesPerNode)
	}
}

// TestDormantNodeFitsItsSlot pins the slot New's slab holds for every
// node: all a dormant node is besides its radio. What only an awake node
// touches (its layers, queues, caches and IP counters) is one pointer here.
func TestDormantNodeFitsItsSlot(t *testing.T) {
	n := unsafe.Sizeof(stack.Node{})
	t.Logf("Node: %d bytes", n)
	if n > 88 {
		t.Fatalf("Node is %d bytes, want <= 88: a field only an awake node uses belongs in its layers", n)
	}
}
