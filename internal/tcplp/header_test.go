package tcplp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"tcplp/internal/ip6"
)

var testSrc, testDst = ip6.AddrFromID(1), ip6.AddrFromID(2)

func TestSegmentRoundTrip(t *testing.T) {
	s := &Segment{
		SrcPort: 49152, DstPort: 80,
		SeqNum: 0xdeadbeef, AckNum: 0x01020304,
		Flags:  FlagACK | FlagPSH,
		Window: 1848,
		HasTS:  true, TSVal: 111, TSEcr: 222,
		SACKBlocks: []SACKBlock{{Start: 100, End: 200}, {Start: 300, End: 400}},
		Payload:    []byte("data bytes"),
	}
	b := s.AppendEncode(nil, testSrc, testDst)
	if len(b) != s.WireLen() {
		t.Fatalf("encoded %d, WireLen %d", len(b), s.WireLen())
	}
	g, err := DecodeSegment(testSrc, testDst, b)
	if err != nil {
		t.Fatal(err)
	}
	if g.SrcPort != s.SrcPort || g.DstPort != s.DstPort || g.SeqNum != s.SeqNum ||
		g.AckNum != s.AckNum || g.Flags != s.Flags || g.Window != s.Window {
		t.Fatalf("fixed fields: %+v", g)
	}
	if !g.HasTS || g.TSVal != 111 || g.TSEcr != 222 {
		t.Fatalf("timestamps: %+v", g)
	}
	if len(g.SACKBlocks) != 2 || g.SACKBlocks[0] != s.SACKBlocks[0] || g.SACKBlocks[1] != s.SACKBlocks[1] {
		t.Fatalf("sack: %+v", g.SACKBlocks)
	}
	if !bytes.Equal(g.Payload, s.Payload) {
		t.Fatalf("payload: %q", g.Payload)
	}
}

func TestSYNOptions(t *testing.T) {
	s := &Segment{Flags: FlagSYN, MSS: 408, SACKPermitted: true, HasTS: true}
	g, err := DecodeSegment(testSrc, testDst, s.AppendEncode(nil, testSrc, testDst))
	if err != nil {
		t.Fatal(err)
	}
	if g.MSS != 408 || !g.SACKPermitted || !g.HasTS {
		t.Fatalf("SYN options: %+v", g)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	s := &Segment{SrcPort: 1, DstPort: 2, Payload: []byte("hello")}
	b := s.AppendEncode(nil, testSrc, testDst)
	b[len(b)-1] ^= 0x40
	if _, err := DecodeSegment(testSrc, testDst, b); err != ErrBadChecksum {
		t.Fatalf("corrupted payload: %v", err)
	}
	// Wrong pseudo header (different destination) also fails.
	b = s.AppendEncode(nil, testSrc, testDst)
	if _, err := DecodeSegment(testSrc, ip6.AddrFromID(9), b); err != ErrBadChecksum {
		t.Fatalf("wrong pseudo header: %v", err)
	}
}

func TestSegmentLen(t *testing.T) {
	if (&Segment{Flags: FlagSYN}).Len() != 1 {
		t.Fatal("SYN occupies one sequence number")
	}
	if (&Segment{Flags: FlagFIN, Payload: []byte("ab")}).Len() != 3 {
		t.Fatal("FIN + payload length")
	}
	if (&Segment{Flags: FlagACK}).Len() != 0 {
		t.Fatal("pure ACK occupies no sequence space")
	}
}

func TestHeaderLenAlignment(t *testing.T) {
	s := &Segment{HasTS: true} // 10 option bytes → pad to 12
	if s.HeaderLen() != 32 {
		t.Fatalf("ts header len = %d, want 32", s.HeaderLen())
	}
	s = &Segment{MSS: 500, SACKPermitted: true, HasTS: true} // 16 bytes
	if s.HeaderLen() != 36 {
		t.Fatalf("syn header len = %d, want 36", s.HeaderLen())
	}
}

func TestFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SA" {
		t.Fatalf("flags = %q", got)
	}
	if got := Flags(0).String(); got != "." {
		t.Fatalf("empty flags = %q", got)
	}
}

// Property: arbitrary segments round-trip through encode/decode.
func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16,
		tsv, tse uint32, useTS bool, payload []byte, nblocks uint8) bool {
		s := &Segment{
			SrcPort: sp, DstPort: dp,
			SeqNum: Seq(seq), AckNum: Seq(ack),
			Flags: Flags(flags), Window: win,
			Payload: payload,
		}
		if useTS {
			s.HasTS, s.TSVal, s.TSEcr = true, tsv, tse
		}
		for i := 0; i < int(nblocks%4); i++ {
			s.SACKBlocks = append(s.SACKBlocks, SACKBlock{Seq(seq + uint32(i*100)), Seq(seq + uint32(i*100+50))})
		}
		g, err := DecodeSegment(testSrc, testDst, s.AppendEncode(nil, testSrc, testDst))
		if err != nil {
			return false
		}
		if g.SeqNum != s.SeqNum || g.AckNum != s.AckNum || g.Flags != s.Flags ||
			g.Window != s.Window || !bytes.Equal(g.Payload, payload) {
			return false
		}
		if g.HasTS != s.HasTS || g.TSVal != s.TSVal || g.TSEcr != s.TSEcr {
			return false
		}
		if len(g.SACKBlocks) != len(s.SACKBlocks) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	near := Seq(0xfffffff0)
	far := near.Add(0x20) // wraps
	if !near.LT(far) || !far.GT(near) {
		t.Fatal("wraparound comparison failed")
	}
	if far.Diff(near) != 0x20 {
		t.Fatalf("diff = %d", far.Diff(near))
	}
	if near.Diff(far) != -0x20 {
		t.Fatalf("negative diff = %d", near.Diff(far))
	}
	if !near.LEQ(near) || !near.GEQ(near) {
		t.Fatal("reflexive comparisons")
	}
	if maxSeq(near, far) != far || minSeq(near, far) != near {
		t.Fatal("min/max across wrap")
	}
}

// Property: sequence comparisons behave like integers for spans < 2^31.
func TestQuickSeqOrdering(t *testing.T) {
	f := func(base uint32, delta uint16) bool {
		a := Seq(base)
		b := a.Add(int(delta))
		if delta == 0 {
			return a.LEQ(b) && a.GEQ(b) && !a.LT(b) && !a.GT(b)
		}
		return a.LT(b) && b.GT(a) && b.Diff(a) == int(delta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// checksumBytePairs is Checksum as it was written before it summed eight
// bytes a step: two bytes per iteration into 32 bits. It survives as the
// oracle for TestChecksumMatchesBytePairs.
func checksumBytePairs(src, dst ip6.Addr, b []byte) uint16 {
	var sum uint32
	add16 := func(p []byte) {
		for i := 0; i+1 < len(p); i += 2 {
			sum += uint32(p[i])<<8 | uint32(p[i+1])
		}
		if len(p)%2 == 1 {
			sum += uint32(p[len(p)-1]) << 8
		}
	}
	add16(src[:])
	add16(dst[:])
	sum += uint32(len(b))
	sum += ip6.ProtoTCP
	add16(b)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestChecksumMatchesBytePairs: every length a 6LoWPAN datagram can carry
// and beyond, starting on even and odd addresses (the word loads are
// unaligned either way), over random bytes, all-ones (every carry there
// is) and all-zero, between random addresses — the same sixteen bits as
// the byte-pair loop.
func TestChecksumMatchesBytePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	backing := make([]byte, 2048+1)
	fills := []struct {
		name string
		fill func([]byte)
	}{
		{"random", func(p []byte) { rng.Read(p) }},
		{"all-0xff", func(p []byte) {
			for i := range p {
				p[i] = 0xff
			}
		}},
		{"all-zero", func(p []byte) { clear(p) }},
	}
	for n := 0; n <= 2048; n++ {
		for start := 0; start <= 1; start++ {
			for _, f := range fills {
				var src, dst ip6.Addr
				rng.Read(src[:])
				rng.Read(dst[:])
				b := backing[start : start+n]
				f.fill(b)
				if got, want := Checksum(src, dst, b), checksumBytePairs(src, dst, b); got != want {
					t.Fatalf("%d %s bytes at offset %d: Checksum = %#04x, byte pairs give %#04x", n, f.name, start, got, want)
				}
			}
		}
	}
}

var checksumSink uint16

// BenchmarkChecksum: one full-sized segment as bulk_chain sends them, a
// 32-byte header (timestamps) and a 440-byte MSS.
func BenchmarkChecksum(b *testing.B) {
	seg := make([]byte, 32+440)
	rand.New(rand.NewSource(1)).Read(seg)
	b.SetBytes(int64(len(seg)))
	for i := 0; i < b.N; i++ {
		checksumSink = Checksum(testSrc, testDst, seg)
	}
}
