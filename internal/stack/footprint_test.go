package stack_test

import (
	"runtime"
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/stack"
)

// TestIdleNodeFootprint pins the heap cost of an idle node at city
// scale. Most of a 10k-node metro deployment is idle at any instant, so
// construction-time allocation per node is what bounds how large a
// topology fits in memory. The budget reflects the lazy-map work: MAC
// dedup/indirect state, TCP/UDP demux maps, and forwarding caches all
// allocate on first use rather than in New, and route tables store
// int32 columns. Regressions that re-introduce eager per-node state
// show up as a burst well above the bound.
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

	// Measured 2 066 B/node under go 1.24 (2 210 before the reassembler
	// became lazy too). The bound sits at the old figure: the
	// datagram-path buffers are all grown on first use, so none of them
	// may show up here, and eager per-node state of any kind costs
	// a hundred bytes or more per node.
	const maxBytesPerNode = 2200
	t.Logf("idle footprint: %.0f B/node (%d nodes)", perNode, n)
	if perNode > maxBytesPerNode {
		t.Fatalf("idle footprint = %.0f B/node, budget %d", perNode, maxBytesPerNode)
	}
}
