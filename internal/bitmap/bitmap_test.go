package bitmap

import (
	"math/rand"
	"testing"
)

// TestRangesMatchPerBitModel: every (lo, hi) over three words, on random
// contents, sets or clears exactly the bits a per-bit loop would, counts
// the fresh ones, and touches nothing outside the range.
func TestRangesMatchPerBitModel(t *testing.T) {
	const n = 3 * 64
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			var words [n / 64]uint64
			var model [n]bool
			for i := range model {
				if model[i] = rng.Intn(2) == 0; model[i] {
					words[i/64] |= 1 << (i % 64)
				}
			}
			set, clear := words, words
			fresh := 0
			for i := lo; i < hi; i++ {
				if !model[i] {
					fresh++
				}
			}
			if got := SetRange(set[:], lo, hi); got != fresh {
				t.Fatalf("SetRange(%d, %d) = %d fresh bits, want %d", lo, hi, got, fresh)
			}
			ClearRange(clear[:], lo, hi)
			for i := range model {
				in := i >= lo && i < hi
				if got := set[i/64]>>(i%64)&1 == 1; got != (model[i] || in) {
					t.Fatalf("SetRange(%d, %d): bit %d = %v", lo, hi, i, got)
				}
				if got := clear[i/64]>>(i%64)&1 == 1; got != (model[i] && !in) {
					t.Fatalf("ClearRange(%d, %d): bit %d = %v", lo, hi, i, got)
				}
			}
		}
	}
}
