package gateway

import (
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/netem"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

// TestEvictReturnsEachBatchOnce evicts a device that has one batch on
// the WAN and another still pending: the pending batch goes back to the
// pool at eviction, the in-flight one when the link delivers it — still
// crediting the evicted device's hooks — and neither goes back twice.
func TestEvictReturnsEachBatchOnce(t *testing.T) {
	net := stack.New(31, mesh.Star(2, 10), stack.DefaultOptions())
	g := New(net.Border(), Config{WAN: netem.WANConfig{BandwidthKbps: 8, Delay: 100 * sim.Millisecond}}, 33)
	dev := net.Nodes[1].Addr
	var credited []uint32
	sink := g.Register(dev, nil, func(seq uint32) { credited = append(credited, seq) }, nil)

	e := g.touch(dev)
	g.onReading(e, 1)
	g.onReading(e, 2)
	inFlight := e.pending
	g.flush(e)
	g.onReading(e, 3)
	pending := e.pending
	if inFlight == nil || pending == nil || pending == inFlight || len(g.batchFree) != 0 {
		t.Fatalf("in flight %p, pending %p, %d free: want two distinct batches out", inFlight, pending, len(g.batchFree))
	}

	g.evict(0)
	if len(g.batchFree) != 1 || g.batchFree[0] != pending || len(pending.seqs) != 0 || pending.reg != nil {
		t.Fatalf("after eviction: free list %v, pending batch %+v", g.batchFree, pending)
	}
	if len(inFlight.seqs) != 2 {
		t.Fatalf("eviction touched the batch on the link: %+v", inFlight)
	}

	net.Eng.RunFor(5 * sim.Second)
	if len(credited) != 2 || credited[0] != 1 || credited[1] != 2 || sink.Received != 2*82 || g.Stats.ReadingsOut != 2 {
		t.Fatalf("credited %v, %d bytes, stats %+v", credited, sink.Received, g.Stats)
	}
	if len(g.batchFree) != 2 || g.batchFree[0] != pending || g.batchFree[1] != inFlight {
		t.Fatalf("free list %v, want the two batches once each", g.batchFree)
	}

	// The next device's readings ride in a pooled batch.
	e = g.touch(dev)
	g.onReading(e, 4)
	if e.pending != inFlight || len(g.batchFree) != 1 {
		t.Fatalf("pending %p with %d free, want the pooled batch %p", e.pending, len(g.batchFree), inFlight)
	}
}
