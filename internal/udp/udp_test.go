package udp

import (
	"bytes"
	"testing"
	"testing/quick"

	"tcplp/internal/ip6"
)

func TestDatagramRoundTrip(t *testing.T) {
	d := &Datagram{SrcPort: 40001, DstPort: 5683, Payload: []byte("coap bytes")}
	g, err := Decode(d.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g.SrcPort != d.SrcPort || g.DstPort != d.DstPort || !bytes.Equal(g.Payload, d.Payload) {
		t.Fatalf("round trip: %+v", g)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	d := (&Datagram{Payload: []byte("xy")}).AppendEncode(nil)
	if _, err := Decode(d[:len(d)-1]); err != ErrTruncated {
		t.Fatalf("bad length: %v", err)
	}
}

func TestStackDemux(t *testing.T) {
	s := NewStack(ip6.AddrFromID(1))
	var sent ip6.Packet // the slot is lent for the call: keep a copy
	s.Output = func(pkt *ip6.Packet) { sent = *pkt }
	var gotA, gotB []byte
	s.Bind(100, func(src ip6.Addr, sp uint16, p []byte) { gotA = p })
	portB := s.Bind(0, func(src ip6.Addr, sp uint16, p []byte) { gotB = p })
	if portB < 40000 {
		t.Fatalf("ephemeral port = %d", portB)
	}

	s.Send(ip6.AddrFromID(2), 200, 100, []byte("outbound"))
	if sent.NextHeader != ip6.ProtoUDP {
		t.Fatal("send did not produce a UDP packet")
	}

	mk := func(dst uint16, payload string) *ip6.Packet {
		d := &Datagram{SrcPort: 9, DstPort: dst, Payload: []byte(payload)}
		return &ip6.Packet{
			Header: ip6.Header{
				NextHeader: ip6.ProtoUDP, HopLimit: 64,
				Src: ip6.AddrFromID(2), Dst: ip6.AddrFromID(1),
			},
			Payload: d.AppendEncode(nil),
		}
	}
	s.Input(mk(100, "for A"))
	s.Input(mk(portB, "for B"))
	s.Input(mk(999, "nobody"))
	if string(gotA) != "for A" || string(gotB) != "for B" {
		t.Fatalf("demux: %q %q", gotA, gotB)
	}

	// Wrong destination address or protocol is ignored.
	pkt := mk(100, "misaddressed")
	pkt.Dst = ip6.AddrFromID(5)
	s.Input(pkt)
	if string(gotA) != "for A" {
		t.Fatal("misaddressed packet delivered")
	}

	s.Unbind(100)
	s.Input(mk(100, "after unbind"))
	if string(gotA) != "for A" {
		t.Fatal("unbound port delivered")
	}
}

// Property: datagrams round-trip for arbitrary ports and payloads.
func TestQuickDatagramRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, payload []byte) bool {
		if len(payload) > 60000 {
			payload = payload[:60000]
		}
		g, err := Decode((&Datagram{SrcPort: sp, DstPort: dp, Payload: payload}).AppendEncode(nil))
		if err != nil {
			return false
		}
		return g.SrcPort == sp && g.DstPort == dp &&
			(bytes.Equal(g.Payload, payload) || (len(payload) == 0 && len(g.Payload) == 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLoopbackSendFromHandler pins the one case in which a send finds
// the slot lent out: a datagram to the node's own address is delivered
// inside Output, and its handler answers from there. The nested send
// must not touch the bytes the outer handler is still reading, and the
// slot must be the stack's again afterwards.
func TestLoopbackSendFromHandler(t *testing.T) {
	self := ip6.AddrFromID(1)
	s := NewStack(self)
	s.Output = s.Input // what stack.Node.route does with a packet to itself
	var request, reply string
	s.Bind(100, func(src ip6.Addr, sp uint16, p []byte) {
		s.Send(self, sp, 100, []byte("reply, longer than the request"))
		request = string(p) // read after the nested send
	})
	s.Bind(200, func(src ip6.Addr, sp uint16, p []byte) { reply = string(p) })

	s.Send(self, 100, 200, []byte("request"))
	if request != "request" || reply != "reply, longer than the request" {
		t.Fatalf("request %q, reply %q", request, reply)
	}
	slot := s.slot
	if slot == nil || slot.busy {
		t.Fatalf("slot after the exchange: %+v", slot)
	}
	request, reply = "", ""
	s.Send(self, 100, 200, []byte("request"))
	if request != "request" || reply == "" || s.slot != slot {
		t.Fatalf("second exchange: request %q, reply %q, slot replaced: %v", request, reply, s.slot != slot)
	}
	s.Bind(300, func(ip6.Addr, uint16, []byte) {})
	if n := testing.AllocsPerRun(10, func() { s.Send(self, 300, 100, []byte("one way")) }); n != 0 {
		t.Fatalf("%v allocations per send from the slot", n)
	}
}
