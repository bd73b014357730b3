// Package bitmap is the word-at-a-time range arithmetic on a []uint64
// presence bitmap that both in-place reassembly queues share: tcplp's
// receive queue (one bit per buffered byte, §4.3 / Fig. 1b) and
// sixlowpan's fragment coverage (one bit per datagram payload byte).
// Bit i lives in words[i/64] at position i%64; ranges are half-open and
// must lie inside the slice.
package bitmap

import "math/bits"

// SetRange sets bits [lo, hi) and returns how many were previously
// clear.
func SetRange(words []uint64, lo, hi int) int {
	fresh := 0
	for lo < hi {
		mask, n := span(lo, hi)
		old := words[lo/64]
		fresh += n - bits.OnesCount64(old&mask)
		words[lo/64] = old | mask
		lo += n
	}
	return fresh
}

// ClearRange clears bits [lo, hi).
func ClearRange(words []uint64, lo, hi int) {
	for lo < hi {
		mask, n := span(lo, hi)
		words[lo/64] &^= mask
		lo += n
	}
}

// span returns the mask of the bits of [lo, hi) that fall in lo's word,
// and how many they are (at least one when lo < hi).
func span(lo, hi int) (mask uint64, n int) {
	r := lo % 64
	n = min(64-r, hi-lo)
	return (^uint64(0) >> (64 - n)) << r, n
}
