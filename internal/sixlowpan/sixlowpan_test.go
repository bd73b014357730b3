package sixlowpan

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tcplp/internal/ip6"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

func meshHeader(srcID, dstID int) *ip6.Header {
	return &ip6.Header{
		NextHeader: ip6.ProtoTCP,
		HopLimit:   64,
		Src:        ip6.AddrFromID(srcID),
		Dst:        ip6.AddrFromID(dstID),
	}
}

func TestIPHCRoundTripCompressed(t *testing.T) {
	h := meshHeader(3, 9)
	b := CompressHeader(h)
	if len(b) != 8 {
		t.Fatalf("compressed mesh header = %d bytes, want 8", len(b))
	}
	g, n, err := DecompressHeader(b)
	if err != nil || n != len(b) {
		t.Fatalf("decompress: %v consumed %d of %d", err, n, len(b))
	}
	if *g != *h {
		t.Fatalf("round trip: %+v vs %+v", g, h)
	}
}

func TestIPHCRoundTripUncompressible(t *testing.T) {
	h := &ip6.Header{
		TrafficClass: 0x02, // ECT(0)
		FlowLabel:    0xbeef,
		NextHeader:   ip6.ProtoUDP,
		HopLimit:     255,
		Src:          ip6.Addr{0x20, 0x01, 0x0d, 0xb8, 15: 0x01}, // global
		Dst:          ip6.AddrFromID(4),
	}
	b := CompressHeader(h)
	g, n, err := DecompressHeader(b)
	if err != nil || n != len(b) {
		t.Fatalf("decompress: %v", err)
	}
	if *g != *h {
		t.Fatalf("round trip: %+v vs %+v", g, h)
	}
	if len(b) >= 40 {
		t.Fatalf("compression produced %d bytes for a 40-byte header", len(b))
	}
}

func TestDecrementHopLimit(t *testing.T) {
	h := meshHeader(1, 2)
	b := CompressHeader(h)
	b = append(b, []byte("payload")...)
	hl, ok := DecrementHopLimit(b)
	if !ok || hl != 63 {
		t.Fatalf("hl=%d ok=%v", hl, ok)
	}
	g, _, err := DecompressHeader(b)
	if err != nil || g.HopLimit != 63 {
		t.Fatalf("hop limit after decrement: %v %v", g, err)
	}
	if _, ok := DecrementHopLimit([]byte{0xc0, 0, 0, 0}); ok {
		t.Fatal("DecrementHopLimit accepted a FRAG1 payload")
	}
}

func TestFragmentSingleFrame(t *testing.T) {
	var f Fragmenter
	h := meshHeader(1, 2)
	chdr := CompressHeader(h)
	frags := f.Fragment(chdr, []byte("tiny"), phy.MaxMACPayload)
	if len(frags) != 1 {
		t.Fatalf("fragments = %d, want 1", len(frags))
	}
	if Classify(frags[0]) != KindUnfragmented {
		t.Fatal("single-frame datagram should be IPHC-led")
	}
}

func TestFragmentOffsetsAligned(t *testing.T) {
	var f Fragmenter
	chdr := CompressHeader(meshHeader(1, 2))
	payload := make([]byte, 450)
	frags := f.Fragment(chdr, payload, phy.MaxMACPayload)
	if len(frags) < 2 {
		t.Fatalf("expected fragmentation, got %d", len(frags))
	}
	for i, fr := range frags {
		fi, err := ParseFragment(fr)
		if err != nil {
			t.Fatalf("frag %d: %v", i, err)
		}
		if fi.DatagramSize != uint16(40+len(payload)) {
			t.Fatalf("frag %d size = %d", i, fi.DatagramSize)
		}
		if fi.Offset%8 != 0 {
			t.Fatalf("frag %d offset %d not 8-aligned", i, fi.Offset)
		}
		if len(fr) > phy.MaxMACPayload {
			t.Fatalf("frag %d oversized: %d", i, len(fr))
		}
	}
}

func TestFrameCountPrediction(t *testing.T) {
	chdrLen := len(CompressHeader(meshHeader(1, 2)))
	var f Fragmenter
	for n := 0; n <= 900; n += 13 {
		frags := f.Fragment(CompressHeader(meshHeader(1, 2)), make([]byte, n), phy.MaxMACPayload)
		if got := FrameCount(chdrLen, n, phy.MaxMACPayload); got != len(frags) {
			t.Fatalf("FrameCount(%d) = %d, actual fragments %d", n, got, len(frags))
		}
	}
	// MaxPayloadForFrames inverts FrameCount: a payload of exactly that
	// size fits in k frames, one byte more does not.
	for k := 1; k <= 8; k++ {
		n := MaxPayloadForFrames(chdrLen, k, phy.MaxMACPayload)
		if FrameCount(chdrLen, n, phy.MaxMACPayload) != k {
			t.Fatalf("MaxPayloadForFrames(%d)=%d does not fit in %d frames", k, n, k)
		}
		if FrameCount(chdrLen, n+1, phy.MaxMACPayload) == k {
			t.Fatalf("MaxPayloadForFrames(%d)=%d is not maximal", k, n)
		}
	}
}

func TestMSSFiveFramesMatchesPaper(t *testing.T) {
	// §6.1: five frames carry ≈408-462 B of TCP payload depending on
	// header sizes. With our 8-byte IPHC header and a 32-byte TCP header
	// (timestamps), five frames must carry at least 400 B of TCP data.
	chdrLen := len(CompressHeader(meshHeader(1, 2)))
	seg := MaxPayloadForFrames(chdrLen, 5, phy.MaxMACPayload)
	data := seg - 32
	if data < 400 || data > 520 {
		t.Fatalf("five-frame MSS = %d bytes of TCP data, want ≈400-520", data)
	}
}

func reassemble(t *testing.T, r *Reassembler, src phy.Addr, frags [][]byte) *ip6.Packet {
	t.Helper()
	for i, fr := range frags {
		pkt, err := r.Input(src, fr, 0)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if pkt != nil {
			if i != len(frags)-1 {
				t.Fatalf("datagram completed early at fragment %d", i)
			}
			return pkt
		}
	}
	return nil
}

func TestReassemblyInOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var f Fragmenter
	payload := make([]byte, 600)
	rand.New(rand.NewSource(2)).Read(payload)
	h := meshHeader(5, 6)
	frags := f.Fragment(CompressHeader(h), payload, phy.MaxMACPayload)
	pkt := reassemble(t, r, phy.AddrFromID(5), frags)
	if pkt == nil {
		t.Fatal("datagram did not complete")
	}
	if !bytes.Equal(pkt.Payload, payload) || pkt.Src != h.Src || pkt.Dst != h.Dst {
		t.Fatal("reassembled packet mismatch")
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after completion", r.Pending())
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var f Fragmenter
	payload := make([]byte, 500)
	for i := range payload {
		payload[i] = byte(i)
	}
	frags := f.Fragment(CompressHeader(meshHeader(1, 2)), payload, phy.MaxMACPayload)
	if len(frags) < 3 {
		t.Fatalf("test wants ≥3 fragments, got %d", len(frags))
	}
	perm := rand.New(rand.NewSource(9)).Perm(len(frags))
	var pkt *ip6.Packet
	for _, i := range perm {
		p, err := r.Input(phy.AddrFromID(1), frags[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		if p != nil {
			pkt = p
		}
	}
	if pkt == nil || !bytes.Equal(pkt.Payload, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassemblyDuplicateFragment(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var f Fragmenter
	payload := make([]byte, 400)
	frags := f.Fragment(CompressHeader(meshHeader(1, 2)), payload, phy.MaxMACPayload)
	src := phy.AddrFromID(1)
	if _, err := r.Input(src, frags[0], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Input(src, frags[0], 0); err != nil { // duplicate FRAG1
		t.Fatal(err)
	}
	for _, fr := range frags[1:] {
		if pkt, _ := r.Input(src, fr, 0); pkt != nil {
			return
		}
	}
	t.Fatal("datagram did not complete with a duplicated fragment")
}

func TestReassemblyTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var f Fragmenter
	frags := f.Fragment(CompressHeader(meshHeader(1, 2)), make([]byte, 500), phy.MaxMACPayload)
	if _, err := r.Input(phy.AddrFromID(1), frags[0], 0); err != nil {
		t.Fatal(err)
	}
	if r.Pending() != 1 {
		t.Fatalf("pending = %d", r.Pending())
	}
	eng.RunFor(DefaultReassemblyTimeout + sim.Second)
	if r.Pending() != 0 {
		t.Fatal("partial datagram not expired")
	}
	if r.TimedOut != 1 {
		t.Fatalf("TimedOut = %d", r.TimedOut)
	}
}

func TestInterleavedDatagramsFromTwoSources(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var fa, fb Fragmenter
	pa := bytes.Repeat([]byte{0xaa}, 300)
	pb := bytes.Repeat([]byte{0xbb}, 300)
	fra := fa.Fragment(CompressHeader(meshHeader(1, 9)), pa, phy.MaxMACPayload)
	frb := fb.Fragment(CompressHeader(meshHeader(2, 9)), pb, phy.MaxMACPayload)
	srcA, srcB := phy.AddrFromID(1), phy.AddrFromID(2)
	// Input's packet is valid only until the next Input, so each side is
	// checked the moment it completes.
	var gotA, gotB bool
	for i := range fra {
		if p, _ := r.Input(srcA, fra[i], 0); p != nil {
			gotA = true
			if !bytes.Equal(p.Payload, pa) {
				t.Fatal("interleaved payloads mixed up (A)")
			}
		}
		if p, _ := r.Input(srcB, frb[i], 0); p != nil {
			gotB = true
			if !bytes.Equal(p.Payload, pb) {
				t.Fatal("interleaved payloads mixed up (B)")
			}
		}
	}
	if !gotA || !gotB {
		t.Fatal("interleaved reassembly failed")
	}
}

func TestRewriteTag(t *testing.T) {
	var f Fragmenter
	frags := f.Fragment(CompressHeader(meshHeader(1, 2)), make([]byte, 400), phy.MaxMACPayload)
	if err := RewriteTag(frags[1], 0x1234); err != nil {
		t.Fatal(err)
	}
	fi, err := ParseFragment(frags[1])
	if err != nil || fi.Tag != 0x1234 {
		t.Fatalf("tag rewrite: %+v %v", fi, err)
	}
	if err := RewriteTag(frags[0][4:], 1); err == nil {
		t.Fatal("RewriteTag accepted a non-fragment")
	}
}

// Property: any payload fragments and reassembles byte-exactly, for any
// size up to the 6LoWPAN datagram limit and any delivery order.
func TestQuickFragmentRoundTrip(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var f Fragmenter
	check := func(n uint16, seed int64, srcID, dstID uint8) bool {
		size := int(n) % 1900
		payload := make([]byte, size)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(payload)
		h := meshHeader(int(srcID), int(dstID))
		frags := f.Fragment(CompressHeader(h), payload, phy.MaxMACPayload)
		order := rng.Perm(len(frags))
		var pkt *ip6.Packet
		for _, i := range order {
			p, err := r.Input(phy.AddrFromID(int(srcID)), frags[i], 0)
			if err != nil {
				return false
			}
			if p != nil {
				pkt = p
			}
		}
		return pkt != nil && bytes.Equal(pkt.Payload, payload) &&
			pkt.Src == h.Src && pkt.Dst == h.Dst && pkt.NextHeader == h.NextHeader
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: IPHC round-trips arbitrary headers.
func TestQuickIPHCRoundTrip(t *testing.T) {
	check := func(tc uint8, fl uint32, nh, hl uint8, src, dst [16]byte) bool {
		h := &ip6.Header{
			TrafficClass: tc,
			FlowLabel:    fl & 0xfffff,
			NextHeader:   nh,
			HopLimit:     hl,
			Src:          ip6.Addr(src),
			Dst:          ip6.Addr(dst),
		}
		g, n, err := DecompressHeader(CompressHeader(h))
		if err != nil {
			return false
		}
		_ = n
		return *g == *h
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFragmenterPoolMixedSizes: a node sends full-size fragments and
// short frames (ACKs, relayed last fragments) through one pool. Once a
// first round has stocked it, every buffer handed out must be one of
// that round's — a short buffer popped for a full-size request is kept
// and fits, not dropped for a fresh one.
func TestFragmenterPoolMixedSizes(t *testing.T) {
	var f Fragmenter
	chdr := CompressHeader(meshHeader(1, 2))
	segment := bytes.Repeat([]byte{0x33}, 440)
	ack := bytes.Repeat([]byte{0x44}, 32)
	fullFrame := bytes.Repeat([]byte{0x55}, phy.MaxMACPayload)
	var frames [][]byte
	stock := map[*byte]bool{}
	release := func(warm bool) {
		for _, fr := range frames {
			if p := &fr[:1][0]; warm {
				stock[p] = true
			} else if !stock[p] {
				t.Fatalf("a %d-byte frame got a fresh buffer with %d pooled", len(fr), len(stock))
			}
			f.Release(fr)
		}
		frames = frames[:0]
	}
	full := func(warm bool) {
		frames = f.AppendFragments(frames, chdr, segment, phy.MaxMACPayload)
		frames = append(frames, f.Clone(fullFrame))
		release(warm)
	}
	short := func(warm bool) {
		frames = f.AppendFragments(frames, chdr, ack, phy.MaxMACPayload)
		frames = append(frames, f.Clone(ack), f.Clone(ack[:8]))
		release(warm)
	}
	full(true)
	for i := 0; i < 8; i++ {
		short(false)
		full(false)
	}
	if n := testing.AllocsPerRun(20, func() { short(false); full(false) }); n != 0 {
		t.Fatalf("alternating short and full-size rounds cost %.0f allocations each, want 0", n)
	}
}
