package tcplp

import (
	"bytes"
	"encoding/binary"
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
