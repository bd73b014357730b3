package ip6

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	p := &Packet{
		Header: Header{
			TrafficClass: 0xa2,
			FlowLabel:    0xfedcb,
			NextHeader:   ProtoTCP,
			HopLimit:     64,
			Src:          AddrFromID(1),
			Dst:          AddrFromID(2),
		},
		Payload: []byte("segment bytes"),
	}
	b := p.AppendEncode(nil)
	if len(b) != HeaderLen+len(p.Payload) {
		t.Fatalf("encoded %d bytes", len(b))
	}
	g, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Header != p.Header || !bytes.Equal(g.Payload, p.Payload) {
		t.Fatalf("round trip: %+v vs %+v", g, p)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	b := (&Packet{Header: Header{Src: AddrFromID(0), Dst: AddrFromID(1)}}).AppendEncode(nil)
	b[0] = 4 << 4
	if _, err := Decode(b); err != ErrNotIPv6 {
		t.Fatalf("version: %v", err)
	}
	b = (&Packet{Payload: []byte("xy")}).AppendEncode(nil)
	if _, err := Decode(b[:len(b)-1]); err != ErrBadPayload {
		t.Fatalf("length: %v", err)
	}
}

func TestECN(t *testing.T) {
	h := &Header{}
	h.SetECN(ECT0)
	if h.ECN() != ECT0 {
		t.Fatal("ECT0 round trip")
	}
	h.TrafficClass = 0xfc // DSCP bits set
	h.SetECN(CE)
	if h.ECN() != CE || h.TrafficClass&0xfc != 0xfc {
		t.Fatal("SetECN must preserve DSCP bits")
	}
}

func TestAddrIDMapping(t *testing.T) {
	for _, id := range []int{0, 1, 14, 999} {
		a := AddrFromID(id)
		got, ok := a.ID()
		if !ok || got != id {
			t.Fatalf("ID round trip for %d: %d %v", id, got, ok)
		}
		iid, ok := a.IID16()
		if !ok || int(iid) != id+1 {
			t.Fatalf("IID16 for %d: %d %v", id, iid, ok)
		}
	}
	var global Addr
	global[0] = 0x20
	if _, ok := global.ID(); ok {
		t.Fatal("non-mesh address mapped to an ID")
	}
	if got := AddrFromID(4).String(); got != "fd00::5" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: Encode/Decode round-trips arbitrary packets.
func TestQuickPacketRoundTrip(t *testing.T) {
	f := func(tc uint8, fl uint32, nh, hl uint8, src, dst [16]byte, payload []byte) bool {
		p := &Packet{
			Header: Header{
				TrafficClass: tc, FlowLabel: fl & 0xfffff,
				NextHeader: nh, HopLimit: hl,
				Src: Addr(src), Dst: Addr(dst),
			},
			Payload: payload,
		}
		g, err := Decode(p.AppendEncode(nil))
		if err != nil {
			return false
		}
		return g.Header == p.Header && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
