package phy

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"tcplp/internal/sim"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Type:       FrameData,
		Seq:        42,
		PAN:        0xface,
		Dst:        AddrFromID(7),
		Src:        AddrFromID(3),
		AckRequest: true,
		Payload:    []byte("hello 6lowpan"),
	}
	b := f.Encode()
	if len(b) != f.WireLen() {
		t.Fatalf("encoded %d bytes, WireLen says %d", len(b), f.WireLen())
	}
	var g Frame
	if err := DecodeFrameInto(&g, b); err != nil {
		t.Fatal(err)
	}
	if g.Type != f.Type || g.Seq != f.Seq || g.PAN != f.PAN || g.Dst != f.Dst ||
		g.Src != f.Src || g.AckRequest != f.AckRequest || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", g, f)
	}
}

func TestAckRoundTrip(t *testing.T) {
	a := AckFor(99, true)
	b := a.Encode()
	if len(b) != AckFrameLen {
		t.Fatalf("ack length %d, want %d", len(b), AckFrameLen)
	}
	var g Frame
	if err := DecodeFrameInto(&g, b); err != nil {
		t.Fatal(err)
	}
	if g.Type != FrameAck || g.Seq != 99 || !g.FramePending {
		t.Fatalf("ack round trip: %+v", g)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	f := &Frame{
		Type:       FrameCommand,
		Seq:        1,
		Dst:        AddrFromID(0),
		Src:        AddrFromID(5),
		Command:    DataRequest,
		AckRequest: true,
	}
	var g Frame
	if err := DecodeFrameInto(&g, f.Encode()); err != nil {
		t.Fatal(err)
	}
	if g.Type != FrameCommand || g.Command != DataRequest {
		t.Fatalf("command round trip: %+v", g)
	}
}

func TestFrameOverheadMatchesPaper(t *testing.T) {
	// Table 6: 23 B of IEEE 802.15.4 overhead per frame.
	if FrameOverhead != 23 {
		t.Fatalf("FrameOverhead = %d, want 23", FrameOverhead)
	}
	if MaxMACPayload != 104 {
		t.Fatalf("MaxMACPayload = %d, want 104", MaxMACPayload)
	}
}

func TestAirTimeMatchesPaper(t *testing.T) {
	// Table 5: a 127 B frame takes ≈4.1 ms on air.
	at := AirTime(MaxPHYPayload)
	if at < 4*sim.Millisecond || at > 4500*sim.Microsecond {
		t.Fatalf("127B airtime = %v, want ≈4.1-4.3ms", at)
	}
	// §6.4: node-occupancy for a full frame is ≈8.2 ms including SPI.
	total := at + LoadTime(MaxPHYPayload)
	if total < 8*sim.Millisecond || total > 8600*sim.Microsecond {
		t.Fatalf("127B total = %v, want ≈8.2-8.3ms", total)
	}
}

func TestDecodeErrors(t *testing.T) {
	var g Frame
	if err := DecodeFrameInto(&g, []byte{1, 2}); err != ErrFrameTooShort {
		t.Fatalf("short frame: %v", err)
	}
	if err := DecodeFrameInto(&g, make([]byte, 200)); err != ErrFrameTooLong {
		t.Fatalf("long frame: %v", err)
	}
	// Data frame with short addressing modes is rejected.
	b := (&Frame{Type: FrameData, Dst: AddrFromID(1), Src: AddrFromID(2)}).Encode()
	b[1] &^= 0xc0 // clear src extended-addressing bits
	if err := DecodeFrameInto(&g, b); err != ErrBadAddressing {
		t.Fatalf("bad addressing: %v", err)
	}
}

func TestOversizedFramePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encoding an oversized frame should panic")
		}
	}()
	(&Frame{Type: FrameData, Payload: make([]byte, MaxMACPayload+1)}).Encode()
}

// Property: any payload up to the MAC maximum survives an encode/decode
// round trip with all flag combinations.
func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(payload []byte, seq uint8, pan uint16, ar, fp bool, dst, src uint8) bool {
		if len(payload) > MaxMACPayload {
			payload = payload[:MaxMACPayload]
		}
		in := &Frame{
			Type: FrameData, Seq: seq, PAN: pan,
			Dst: AddrFromID(int(dst)), Src: AddrFromID(int(src)),
			AckRequest: ar, FramePending: fp, Payload: payload,
		}
		var out Frame
		if err := DecodeFrameInto(&out, in.Encode()); err != nil {
			return false
		}
		return out.Seq == seq && out.PAN == pan && out.AckRequest == ar &&
			out.FramePending == fp && bytes.Equal(out.Payload, payload) &&
			out.Dst == in.Dst && out.Src == in.Src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrFromID(t *testing.T) {
	for _, id := range []int{0, 1, 7, 1000} {
		if got := AddrFromID(id).ID(); got != id {
			t.Fatalf("AddrFromID(%d).ID() = %d", id, got)
		}
	}
	if !BroadcastAddr.IsBroadcast() {
		t.Fatal("broadcast address not recognized")
	}
	if AddrFromID(3).IsBroadcast() {
		t.Fatal("unicast address claimed broadcast")
	}
}

// headerFrames is one frame of each type and shape the header checks tell
// apart: what TestPeekHeaderAgreesWithDecode truncates and corrupts, and
// what FuzzPeekHeaderAgrees starts from.
func headerFrames() map[string]*Frame {
	payload := []byte("payload bytes")
	return map[string]*Frame{
		"data":           {Type: FrameData, Seq: 1, Dst: AddrFromID(1), Src: AddrFromID(2), AckRequest: true, Payload: payload},
		"data broadcast": {Type: FrameData, Seq: 2, Dst: BroadcastAddr, Src: AddrFromID(2), Payload: payload},
		"data empty":     {Type: FrameData, Seq: 3, Dst: AddrFromID(1), Src: AddrFromID(2)},
		"data maximal":   {Type: FrameData, Seq: 4, Dst: AddrFromID(9), Src: AddrFromID(2), Payload: make([]byte, MaxMACPayload)},
		"command":        {Type: FrameCommand, Seq: 5, Dst: AddrFromID(1), Src: AddrFromID(2), Command: DataRequest, AckRequest: true},
		"beacon":         {Type: FrameBeacon, Seq: 6, Dst: AddrFromID(1), Src: AddrFromID(2), Payload: payload},
		"ack":            AckFor(7, false),
		"ack pending":    AckFor(8, true),
	}
}

// TestPeekHeaderAgreesWithDecode: the header peek the MAC filters
// overheard frames with returns DecodeFrameInto's error on every input,
// and its Type and Dst on every frame it accepts — each frame type,
// every truncation of each, oversized input, and each bad addressing
// mode.
func TestPeekHeaderAgreesWithDecode(t *testing.T) {
	inputs := map[string][]byte{
		"empty":    nil,
		"too long": make([]byte, MaxPHYPayload+1),
	}
	for name, f := range headerFrames() {
		wire := f.Encode()
		for n := 0; n <= len(wire); n++ {
			inputs[fmt.Sprintf("%s[:%d]", name, n)] = wire[:n]
		}
		if f.Type == FrameAck {
			continue
		}
		// FCF high byte: dst mode in bits 2-3, src mode in bits 6-7.
		for _, clear := range []byte{0x04, 0x08, 0x0c, 0x40, 0x80, 0xc0, 0xcc} {
			bad := append([]byte(nil), wire...)
			bad[1] &^= clear
			inputs[fmt.Sprintf("%s fcf&^%#x00", name, clear)] = bad
		}
	}
	for name, b := range inputs {
		var f Frame
		wantErr := DecodeFrameInto(&f, b)
		typ, dst, err := PeekHeader(b)
		if err != wantErr {
			t.Errorf("%s: PeekHeader error %v, DecodeFrameInto %v", name, err, wantErr)
			continue
		}
		if err == nil && (typ != f.Type || dst != f.Dst) {
			t.Errorf("%s: PeekHeader = (%v, %v), DecodeFrameInto = (%v, %v)", name, typ, dst, f.Type, f.Dst)
		}
	}
}
