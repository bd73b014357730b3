package stack

import (
	"reflect"
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
	delivered, frames := dst.Stats().PacketsDelivered, src.Mac().Stats.DataSent
	const runs = 100
	perDatagram := testing.AllocsPerRun(runs, send)
	if got := dst.Stats().PacketsDelivered - delivered; got != runs+1 {
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
// late FRAGNs, last fragments and idle gaps, against two rules: an entry
// is gone by the first frame at or after its expiry, before the lookup in
// the same call, and the fragment that ends a datagram is relayed and
// takes the entry with it, so nothing of that datagram is relayed after
// it.
func TestFwdCacheExpiry(t *testing.T) {
	net := New(1, mesh.Chain(3, 10), DefaultOptions())
	relay := net.Nodes[1].awake() // handed fragments here, not by the radio that would wake it
	from := net.Nodes[2].LinkAddr()
	hdr := &ip6.Header{NextHeader: 59, HopLimit: 64, Src: net.Nodes[2].Addr, Dst: net.Nodes[0].Addr}
	type key struct {
		src phy.Addr
		tag uint16
	}

	var origin sixlowpan.Fragmenter
	datagram := func() (frag1, middle, last []byte, k key) {
		frames := origin.Fragment(sixlowpan.CompressHeader(hdr), make([]byte, 250), phy.MaxMACPayload)
		fi, err := sixlowpan.ParseFragment(frames[0])
		if err != nil || len(frames) != 3 {
			t.Fatalf("want a three-fragment datagram: %d frames, %v", len(frames), err)
		}
		return frames[0], frames[1], frames[2], key{from, fi.Tag}
	}

	const (
		follow = iota // a FRAGN before the last: the entry stays
		first         // a FRAG1: inserts the entry
		last          // the FRAGN that ends the datagram: removes the entry
	)
	const life = sixlowpan.DefaultReassemblyTimeout
	expires := map[key]sim.Time{} // the model: swept in full before every lookup
	at := func(when sim.Duration, payload []byte, k key, op int) {
		t.Helper()
		net.Eng.RunUntil(sim.Time(when)) // also drains what the relay queued
		now := net.Eng.Now()
		for k, e := range expires {
			if now >= e {
				delete(expires, k)
			}
		}
		_, want := expires[k]
		miss := !want // the call's lookup finds nothing, so it passes every entry
		switch op {
		case first:
			expires[k], want = now.Add(life), true
		case last:
			delete(expires, k)
		}
		if got := relay.tryForwardFragment(from, payload, 0); got != want {
			t.Fatalf("t=%v: forwarded=%v, want %v", when, got, want)
		}
		live := map[key]sim.Time{} // entries a lookup now would find
		for _, e := range relay.fwdCache {
			if now >= e.expires {
				continue
			}
			k := key{e.src, e.tag}
			if _, dup := live[k]; dup {
				t.Fatalf("t=%v: two live entries for %v", when, k)
			}
			live[k] = e.expires
		}
		if !reflect.DeepEqual(live, expires) {
			t.Fatalf("t=%v: live entries %v, want %v", when, live, expires)
		}
		if miss && len(relay.fwdCache) != len(expires) {
			t.Fatalf("t=%v: a search that found nothing left %d entries, want the %d live ones",
				when, len(relay.fwdCache), len(expires))
		}
	}

	a1, aN, _, aKey := datagram()
	b1, bN, _, bKey := datagram()
	c1, cN, _, cKey := datagram()
	d1, dN, _, dKey := datagram()
	e1, eN, eLast, eKey := datagram()
	at(0, a1, aKey, first)
	at(1*sim.Second, b1, bKey, first)
	at(life-sim.Millisecond, aN, aKey, follow)    // A's last instant: forwarded
	at(life, aN, aKey, follow)                    // exactly at expiry: gone before the lookup
	at(life, bN, bKey, follow)                    // B unaffected by A's expiry
	at(life+500*sim.Millisecond, c1, cKey, first) // insert between two expiries
	at(life+sim.Second, bN, bKey, follow)         // B expires exactly now
	at(life+sim.Second, cN, cKey, follow)         // C still live
	at(3*life, cN, cKey, follow)                  // long idle gap: a late FRAGN finds nothing
	at(3*life+sim.Second, d1, dKey, first)        // the emptied cache takes inserts again
	at(3*life+2*sim.Second, dN, dKey, follow)     // … and serves them
	at(3*life+3*sim.Second, e1, eKey, first)      // E beside D
	at(3*life+4*sim.Second, eN, eKey, follow)     // E's middle fragment keeps its entry
	at(3*life+5*sim.Second, eLast, eKey, last)    // E's last fragment is relayed and removes it
	at(3*life+5*sim.Second, eLast, eKey, follow)  // so a repeat of it is not relayed
	at(3*life+6*sim.Second, eN, eKey, follow)     // nor any other fragment of E
	at(4*life+sim.Second-sim.Microsecond, dN, dKey, follow)
	at(4*life+sim.Second, dN, dKey, follow)
}
