package phy

import (
	"math"
	"testing"
)

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

// FuzzWithin: Point.Within is exactly math.Hypot(dx, dy) <= r, the test it
// replaced in every range decision, for any coordinates and range. Seeds
// sit where a squared comparison could go wrong: distances exactly at the
// range along an axis and as Pythagorean triples — scaled by powers of two,
// which keeps them exact, and by 1/3, which rounds them onto either side —
// a zero range, subnormal offsets, and offsets near 1e154 whose squares
// overflow.
func FuzzWithin(f *testing.F) {
	for _, r := range []float64{1, 10, 13, 0.1, 1.0 / 3, 1e-3, 1e100} {
		f.Add(0.0, 0.0, r, 0.0, r)
		f.Add(7.5, -2.0, 7.5, -2.0-r, r)
	}
	for _, tr := range [][3]float64{{3, 4, 5}, {5, 12, 13}, {8, 15, 17}, {20, 21, 29}} {
		for _, s := range []float64{0x1p-60, 0x1p-10, 1, 0x1p10, 0x1p60, 1.0 / 3, 10.0 / 3} {
			x, y, r := tr[0]*s, tr[1]*s, tr[2]*s
			f.Add(0.0, 0.0, x, y, r)
			f.Add(x, 1.0, 0.0, 1.0+y, r)
			f.Add(100.0+x, 100.0-y, 100.0, 100.0, r)
		}
	}
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 1.0, 1.0, 1.0, 0.0)
	f.Add(5e-324, 0.0, 0.0, 0.0, 0.0)
	f.Add(5e-324, 0.0, 0.0, 0.0, 5e-324)
	f.Add(5e-324, 5e-324, 0.0, 0.0, 5e-324)
	f.Add(3e-320, 4e-320, 0.0, 0.0, 5e-320)
	f.Add(1e-160, 0.0, 0.0, 0.0, 1e-160)
	f.Add(1e154, 0.0, -1e154, 0.0, 2e154)
	f.Add(1e154, 1e154, 0.0, 0.0, 1e154)
	f.Add(1.5e154, 0.0, 0.0, 0.0, 1e140)
	f.Add(3e154, 4e154, 0.0, 0.0, 5e154)
	f.Add(0.0, 0.0, 1.0, 0.0, -1.0)
	f.Fuzz(func(t *testing.T, px, py, qx, qy, r float64) {
		p, q := Point{px, py}, Point{qx, qy}
		if got, want := p.Within(q, r), math.Hypot(px-qx, py-qy) <= r; got != want {
			t.Fatalf("%v.Within(%v, %v) = %v, Hypot says %v", p, q, r, got, want)
		}
	})
}
