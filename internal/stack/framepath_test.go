package stack

import (
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
)

// TestFramePathAllocs bounds what a one-hop, five-fragment datagram
// costs from Node.SendPacket to the peer's deliver once the pools are
// warm: nothing. Neither the per-frame path (pump, MAC job, wire
// encoding, ACK, PHY transmission, scheduler events) nor the
// per-datagram one (compressed header on route's stack, frame list kept
// by the queue item, header decoded into a value, reassembly into the
// arena) allocates. TestDatagramPathAllocs is the same guard with TCP on
// top and relays in between.
func TestFramePathAllocs(t *testing.T) {
	net := New(1, mesh.Chain(2, 10), DefaultOptions())
	src, dst := net.Nodes[1], net.Nodes[0]
	pkt := &ip6.Packet{
		Header:  ip6.Header{NextHeader: 59, HopLimit: 64, Src: src.Addr, Dst: dst.Addr}, // 59: no next header
		Payload: make([]byte, 440),
	}
	chdr := len(sixlowpan.CompressHeader(&pkt.Header))
	if n := sixlowpan.FrameCount(chdr, len(pkt.Payload), phy.MaxMACPayload); n != 5 {
		t.Fatalf("datagram spans %d frames, want 5", n)
	}
	send := func() {
		src.SendPacket(pkt)
		net.Eng.Run()
	}
	for i := 0; i < 300; i++ { // MAC sequence numbers wrap: every dedup key exists
		send()
	}
	delivered, frames := dst.Stats.PacketsDelivered, src.Mac().Stats.DataSent
	const runs = 100
	perDatagram := testing.AllocsPerRun(runs, send)
	if got := dst.Stats.PacketsDelivered - delivered; got != runs+1 {
		t.Fatalf("delivered %d of %d datagrams", got, runs+1)
	}
	if got := src.Mac().Stats.DataSent - frames; got != 5*(runs+1) {
		t.Fatalf("sent %d frames, want %d", got, 5*(runs+1))
	}
	// It cost 61 before the frame path was pooled (52 for its five
	// frames) and 9 before the datagram path was.
	t.Logf("one-hop five-fragment datagram: %.0f allocations", perDatagram)
	if perDatagram != 0 {
		t.Fatalf("datagram costs %.0f allocations, want 0: something on the per-frame or per-datagram path allocates again", perDatagram)
	}
}

// TestFwdCacheExpiry drives a relay's forwarding cache through inserts,
// late FRAGNs and idle gaps, against the rule the full sweep implemented:
// an entry is gone by the first frame at or after its expiry, before the
// lookup in the same call.
func TestFwdCacheExpiry(t *testing.T) {
	net := New(1, mesh.Chain(3, 10), DefaultOptions())
	relay := net.Nodes[1]
	from := net.Nodes[2].LinkAddr()
	hdr := &ip6.Header{NextHeader: 59, HopLimit: 64, Src: net.Nodes[2].Addr, Dst: net.Nodes[0].Addr}

	var origin sixlowpan.Fragmenter
	datagram := func() (frag1, fragN []byte, key fwdKey) {
		frames := origin.Fragment(sixlowpan.CompressHeader(hdr), make([]byte, 200), phy.MaxMACPayload)
		fi, err := sixlowpan.ParseFragment(frames[0])
		if err != nil || len(frames) < 2 {
			t.Fatalf("want a fragmented datagram: %d frames, %v", len(frames), err)
		}
		return frames[0], frames[1], fwdKey{from, fi.Tag}
	}

	const life = sixlowpan.DefaultReassemblyTimeout
	expires := map[fwdKey]sim.Time{} // the model: swept in full before every lookup
	at := func(when sim.Duration, payload []byte, key fwdKey, insert bool) {
		t.Helper()
		net.Eng.RunUntil(sim.Time(when)) // also drains what the relay queued
		now := net.Eng.Now()
		for k, e := range expires {
			if now >= e {
				delete(expires, k)
			}
		}
		_, want := expires[key]
		if insert {
			expires[key], want = now.Add(life), true
		}
		if got := relay.tryForwardFragment(from, payload, 0); got != want {
			t.Fatalf("t=%v: forwarded=%v, want %v", when, got, want)
		}
		if len(relay.fwdCache) != len(expires) {
			t.Fatalf("t=%v: cache holds %d entries, want %d", when, len(relay.fwdCache), len(expires))
		}
		for k, e := range expires {
			if got, ok := relay.fwdCache[k]; !ok || got.expires != e {
				t.Fatalf("t=%v: entry %v = %+v (present %v), want expiry %v", when, k, got, ok, e)
			}
		}
	}

	a1, aN, aKey := datagram()
	b1, bN, bKey := datagram()
	c1, cN, cKey := datagram()
	d1, dN, dKey := datagram()
	at(0, a1, aKey, true)
	at(1*sim.Second, b1, bKey, true)
	at(life-sim.Millisecond, aN, aKey, false)    // A's last instant: forwarded
	at(life, aN, aKey, false)                    // exactly at expiry: gone before the lookup
	at(life, bN, bKey, false)                    // B unaffected by A's sweep
	at(life+500*sim.Millisecond, c1, cKey, true) // insert between two expiries
	at(life+sim.Second, bN, bKey, false)         // B expires exactly now
	at(life+sim.Second, cN, cKey, false)         // C still live
	at(3*life, cN, cKey, false)                  // long idle gap: a late FRAGN finds nothing
	at(3*life+sim.Second, d1, dKey, true)        // the emptied cache takes inserts again
	at(3*life+2*sim.Second, dN, dKey, false)     // … and serves them
	at(4*life+sim.Second-sim.Microsecond, dN, dKey, false)
	at(4*life+sim.Second, dN, dKey, false)
}
