package phy

import "testing"

// FuzzPeekHeaderAgrees: for arbitrary bytes PeekHeader errs exactly when
// DecodeFrameInto errs, with the same error, and otherwise both report the
// same frame type and destination. Channel.frameDst decides once per
// transmission, from the peek alone, which radios are handed a frame their
// MACs then decode in full: a disagreement would be a frame withheld from
// (or handed to) a MAC that reads it differently. Seeds: the frames
// TestPeekHeaderAgreesWithDecode builds; corpus: a truncated command frame,
// a short-addressed data frame and an ACK with trailing bytes.
func FuzzPeekHeaderAgrees(f *testing.F) {
	for _, fr := range headerFrames() {
		f.Add(fr.Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var fr Frame
		wantErr := DecodeFrameInto(&fr, b)
		typ, dst, err := PeekHeader(b)
		if err != wantErr {
			t.Fatalf("PeekHeader error %v, DecodeFrameInto %v", err, wantErr)
		}
		if err == nil && (typ != fr.Type || dst != fr.Dst) {
			t.Fatalf("PeekHeader = (%v, %v), DecodeFrameInto = (%v, %v)", typ, dst, fr.Type, fr.Dst)
		}
	})
}
