package tcplp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzDecodeSegment: arbitrary bytes never panic the segment decoder —
// as given, and again with the checksum field patched so the option
// parser is reached. A segment it accepts aliases its payload inside b,
// carries at most four SACK blocks, re-encodes to bytes that decode to
// the same segment, and decodes identically through the allocating
// wrapper and into a dirty, reused Segment.
func FuzzDecodeSegment(f *testing.F) {
	f.Add((&Segment{SrcPort: 49153, DstPort: 80, SeqNum: 1, Flags: FlagSYN, Window: 1848,
		MSS: 408, SACKPermitted: true, HasTS: true, TSVal: 7}).AppendEncode(nil, testSrc, testDst))
	busy := (&Segment{SrcPort: 80, DstPort: 49153, SeqNum: 9, AckNum: 1000, Flags: FlagACK | FlagPSH, Window: 400,
		HasTS: true, TSVal: 8, TSEcr: 7, SACKBlocks: []SACKBlock{{2000, 2400}, {3000, 3100}, {4000, 4001}},
		Payload: []byte("reading 17: 21.5C")}).AppendEncode(nil, testSrc, testDst)
	f.Add(busy)
	f.Add((&Segment{Flags: FlagACK, SACKBlocks: []SACKBlock{{1, 2}, {3, 4}, {5, 6}, {7, 8}}}).AppendEncode(nil, testSrc, testDst))
	f.Add(append((&Segment{Flags: FlagRST}).AppendEncode(nil, testSrc, testDst)[:18], 0xf0, 0)) // data offset beyond the bytes
	f.Fuzz(func(t *testing.T, b []byte) {
		reused := &Segment{JID: 99} // dirty: every option and a payload set
		if err := DecodeSegmentInto(reused, testSrc, testDst, busy); err != nil {
			t.Fatal(err)
		}
		check := func(b []byte) {
			var s Segment
			if err := DecodeSegmentInto(&s, testSrc, testDst, b); err != nil {
				return
			}
			hl := len(b) - len(s.Payload)
			if hl < BaseHeaderLen || hl > len(b) || (len(s.Payload) > 0 && &s.Payload[0] != &b[hl]) {
				t.Fatalf("payload (%d bytes) does not alias the tail of b (%d bytes)", len(s.Payload), len(b))
			}
			if len(s.SACKBlocks) > len(s.sackStore) {
				t.Fatalf("%d SACK blocks", len(s.SACKBlocks))
			}
			w, err := DecodeSegment(testSrc, testDst, b)
			if err != nil {
				t.Fatalf("wrapper rejects what DecodeSegmentInto accepts: %v", err)
			}
			sameSegment(t, "wrapper", w, &s)
			if err := DecodeSegmentInto(reused, testSrc, testDst, b); err != nil {
				t.Fatalf("dirty Segment rejects what a clean one accepts: %v", err)
			}
			sameSegment(t, "dirty reuse", reused, &s)
			var again Segment
			if err := DecodeSegmentInto(&again, testSrc, testDst, s.AppendEncode(nil, testSrc, testDst)); err != nil {
				t.Fatalf("re-encoded segment does not decode: %v", err)
			}
			sameSegment(t, "re-encode", &again, &s)
		}
		check(b)
		if len(b) >= BaseHeaderLen {
			fixed := append([]byte(nil), b...)
			fixed[16], fixed[17] = 0, 0
			binary.BigEndian.PutUint16(fixed[16:], Checksum(testSrc, testDst, fixed))
			check(fixed)
		}
	})
}

func sameSegment(t *testing.T, what string, got, want *Segment) {
	t.Helper()
	ok := got.SrcPort == want.SrcPort && got.DstPort == want.DstPort &&
		got.SeqNum == want.SeqNum && got.AckNum == want.AckNum &&
		got.Flags == want.Flags && got.Window == want.Window &&
		got.MSS == want.MSS && got.SACKPermitted == want.SACKPermitted &&
		got.HasTS == want.HasTS && got.TSVal == want.TSVal && got.TSEcr == want.TSEcr &&
		got.JID == want.JID && bytes.Equal(got.Payload, want.Payload) &&
		len(got.SACKBlocks) == len(want.SACKBlocks)
	for i := 0; ok && i < len(want.SACKBlocks); i++ {
		ok = got.SACKBlocks[i] == want.SACKBlocks[i]
	}
	if !ok {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
}

// rbStep is one step of FuzzRecvBuffer's input: a Write of n bytes at
// off, or a Read of up to n bytes.
type rbStep struct {
	read   bool
	off, n int
}

// rbInput encodes a queue capacity and steps as FuzzRecvBuffer decodes
// them: a little-endian uint16 capacity, then four bytes a step.
func rbInput(capacity int, steps ...rbStep) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(capacity-1))
	for _, s := range steps {
		if s.read {
			b = append(b, 1, byte(s.n), byte(s.n>>8), 0)
		} else {
			b = append(b, byte(s.n%8)<<1, byte(s.off+128), byte((s.off+128)>>8), byte(s.n/8))
		}
	}
	return b
}

// FuzzRecvBuffer: a queue whose array grows to what arrives behaves as
// one whose array is made at full size up front. Both take the same
// Writes (offsets before the frontier, inside the array, past it and
// past the window) and Reads, and after every step they agree on the
// return value, Readable, OutOfOrder, Window, the SACK ranges and the
// bytes read; the growing array never passes the capacity.
func FuzzRecvBuffer(f *testing.F) {
	// A wrap right after a growth: the live region is laid out from 0,
	// then a read moves start and the next writes wrap the new array.
	f.Add(rbInput(4096,
		rbStep{off: 0, n: 1500}, rbStep{read: true, n: 1000},
		rbStep{off: 1200, n: 600}, rbStep{off: 0, n: 1200},
		rbStep{read: true, n: 500}, rbStep{off: 0, n: 2040}, rbStep{off: 2040, n: 1500},
		rbStep{read: true, n: 4096}, rbStep{off: 100, n: 8}, rbStep{off: 0, n: 100}))
	// Out-of-order data beyond the current array, moving the
	// out-of-order bytes already in it, then the fill.
	f.Add(rbInput(8192,
		rbStep{off: 0, n: 100}, rbStep{off: 300, n: 50}, rbStep{off: 5000, n: 200}, rbStep{off: 3000, n: 7},
		rbStep{off: 8000, n: 300}, rbStep{off: -50, n: 2040}, rbStep{off: 1990, n: 1016},
		rbStep{read: true, n: 60}, rbStep{off: 2946, n: 2040}))
	// A capacity under firstArray: made once, whole.
	f.Add(rbInput(1848, rbStep{off: 400, n: 400}, rbStep{off: 0, n: 400}, rbStep{read: true, n: 300}, rbStep{off: 500, n: 2040}))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		capacity := 1 + int(binary.LittleEndian.Uint16(in))%8192
		grown, full := NewRecvBuffer(capacity), NewRecvBuffer(capacity)
		full.buf, full.bits = make([]byte, capacity), make([]uint64, (capacity+63)/64)
		data := make([]byte, 2047)
		pg, pf := make([]byte, capacity), make([]byte, capacity)
		stream := 0 // bytes the queues have advanced over
		for step, in := 0, in[2:]; len(in) >= 4; step, in = step+1, in[4:] {
			var g, w int
			what := "read"
			if in[0]&1 != 0 {
				n := int(binary.LittleEndian.Uint16(in[1:])) % (capacity + 1)
				g, w = grown.Read(pg[:n]), full.Read(pf[:n])
				if !bytes.Equal(pg[:g], pf[:w]) {
					t.Fatalf("step %d: read %x, full-size queue %x", step, pg[:g], pf[:w])
				}
			} else {
				off := int(binary.LittleEndian.Uint16(in[1:])) - 128
				p := data[:int(in[3])*8+int(in[0]>>1)%8]
				for i := range p {
					pos := stream + off + i
					p[i] = byte(pos ^ pos>>8) // a byte is the same whenever it is sent
				}
				what = fmt.Sprintf("write of %d at %d", len(p), off)
				g, w = grown.Write(off, p), full.Write(off, p)
				stream += g
			}
			if g != w || grown.Readable() != full.Readable() || grown.OutOfOrder() != full.OutOfOrder() || grown.Window() != full.Window() {
				t.Fatalf("step %d (%s): returned %d, readable %d, ooo %d, window %d; full-size queue %d, %d, %d, %d",
					step, what, g, grown.Readable(), grown.OutOfOrder(), grown.Window(), w, full.Readable(), full.OutOfOrder(), full.Window())
			}
			gs, ws := grown.SACKRanges(nil, 64), full.SACKRanges(nil, 64)
			if fmt.Sprint(gs) != fmt.Sprint(ws) {
				t.Fatalf("step %d (%s): SACK ranges %v, full-size queue %v", step, what, gs, ws)
			}
			if len(grown.buf) > capacity || len(grown.bits) != (len(grown.buf)+63)/64 {
				t.Fatalf("step %d (%s): array %d bytes, bitmap %d words, capacity %d", step, what, len(grown.buf), len(grown.bits), capacity)
			}
		}
	})
}
