package tcplp

import (
	"math/bits"

	"tcplp/internal/bitmap"
)

// RecvBuffer is the receive queue of every connection, the paper's
// in-place reassembly queue: a flat circular buffer whose space past the
// in-sequence data holds out-of-order segments at their final positions,
// with a bitmap recording which bytes are present (Fig. 1b). Its size
// is fixed at construction, for deterministic memory use on a
// constrained node: the modelled footprint (the table of
// internal/experiments/static.go) is the configured capacity, and so is
// the window it advertises. The simulator makes the array and the bitmap
// only as long as the highest offset written needs: nothing until the
// first in-window data byte, so an end that only sends never holds
// them, then min(capacity, 2 KiB), doubled up to the capacity when a
// write lands past the end. A 64 KiB host sink drained on every
// OnReadable thus holds a few KiB. The array's length is the ring's
// modulus; a growth lays the live region out again from position 0.
// Offsets passed to Write are relative to rcv.nxt (0 = next expected
// byte). The mbuf-chain alternative it is measured against lives with
// the §4.3 ablation (ablation_test.go).
type RecvBuffer struct {
	buf      []byte   // nil until the first in-window data byte; len ≤ size
	bits     []uint64 // one bit per byte of buf
	size     int
	start    int // circular index of the first readable byte
	readable int
	ooo      int
	made     int // bytes of every array and bitmap made, replaced ones included
}

// firstArray is the length of a queue's first array, unless its
// capacity is smaller: a mote's 4-segment queue is made once, whole.
const firstArray = 2048

// NewRecvBuffer returns an in-place reassembly queue of the given
// capacity.
func NewRecvBuffer(capacity int) *RecvBuffer {
	return &RecvBuffer{size: capacity}
}

func (b *RecvBuffer) bit(i int) bool  { return b.bits[i/64]&(1<<(i%64)) != 0 }
func (b *RecvBuffer) idx(off int) int { return (b.start + off) % len(b.buf) }

// scanFrom returns the first offset in [i, win) whose presence bit
// matches want, or win if none, walking the bitmap a word at a time.
// Offsets are relative to the in-sequence frontier; those past the
// array's end hold no byte.
func (b *RecvBuffer) scanFrom(i, win int, want bool) int {
	end := min(win, len(b.buf)-b.readable)
	for i < end {
		p := b.idx(b.readable + i)
		r := p % 64
		word := b.bits[p/64] >> r
		if !want {
			word = ^word
		}
		// Stay inside this word, this side of the circular wrap, and
		// inside the array: past any of those the bits belong to other
		// positions (the tail word's spare bits, or the readable region).
		span := 64 - r
		if m := len(b.buf) - p; span > m {
			span = m
		}
		if rem := end - i; span > rem {
			span = rem
		}
		if tz := bits.TrailingZeros64(word); tz < span {
			return i + tz
		}
		i += span
	}
	if want {
		return win
	}
	return min(i, win)
}

// grow makes the array and bitmap at least need bytes long, need ≤
// size: firstArray long (or size) to start, doubling up to size. The
// live region moves to position 0 of the new array, so every offset
// keeps its byte and its bit.
func (b *RecvBuffer) grow(need int) {
	n := len(b.buf)
	if n == 0 {
		n = min(b.size, firstArray)
	}
	for n < need {
		n = min(2*n, b.size)
	}
	buf, words := make([]byte, n), make([]uint64, (n+63)/64)
	k := copy(buf, b.buf[b.start:])
	copy(buf[k:], b.buf[:b.start])
	bitmap.SetRange(words, 0, b.readable)
	end := len(b.buf) - b.readable
	for i := b.scanFrom(0, end, true); i < end; {
		j := b.scanFrom(i, end, false)
		bitmap.SetRange(words, b.readable+i, b.readable+j)
		i = b.scanFrom(j, end, true)
	}
	b.buf, b.bits, b.start = buf, words, 0
	b.made += n + 8*len(words)
}

// Capacity is the configured buffer size, whatever the array's length.
func (b *RecvBuffer) Capacity() int { return b.size }

// Readable is the number of in-sequence bytes awaiting the app.
func (b *RecvBuffer) Readable() int { return b.readable }

// Window is the receive window to advertise: Capacity − Readable.
// Out-of-order bytes do not shrink it — they are stored in place,
// inside the space the window already promises (Fig. 1).
func (b *RecvBuffer) Window() int { return b.size - b.readable }

// OutOfOrder is the number of buffered out-of-sequence bytes.
func (b *RecvBuffer) OutOfOrder() int { return b.ooo }

// Write stores data at sequence offset off (relative to rcv.nxt),
// clipped to the window, and returns how far rcv.nxt may advance:
// non-zero only when off ≤ 0 or the write fills the gap. Data at offset
// off lands at circular position start+readable+off; bytes beyond the
// advertised window are dropped (the peer violated the window).
func (b *RecvBuffer) Write(off int, data []byte) int {
	if off < 0 {
		// Partially duplicate segment: skip the bytes already received.
		if -off >= len(data) {
			return 0
		}
		data = data[-off:]
		off = 0
	}
	win := b.Window()
	if off >= win {
		return 0
	}
	if off+len(data) > win {
		data = data[:win-off]
	}
	if len(data) == 0 {
		return 0
	}
	if need := b.readable + off + len(data); need > len(b.buf) {
		b.grow(need)
	}
	// Land the bytes at their final circular positions (at most one wrap)
	// and mark them present, counting only the genuinely new ones.
	p0 := b.idx(b.readable + off)
	n1 := len(data)
	if n1 > len(b.buf)-p0 {
		n1 = len(b.buf) - p0
	}
	copy(b.buf[p0:], data[:n1])
	copy(b.buf, data[n1:])
	b.ooo += bitmap.SetRange(b.bits, p0, p0+n1) + bitmap.SetRange(b.bits, 0, len(data)-n1)
	// Advance the in-sequence frontier over any contiguous present bytes,
	// a word-sized run at a time.
	advanced := 0
	for b.readable < len(b.buf) {
		p := b.idx(b.readable)
		run := bits.TrailingZeros64(^(b.bits[p/64] >> (p % 64)))
		if m := len(b.buf) - p; run > m {
			run = m
		}
		if rem := len(b.buf) - b.readable; run > rem {
			run = rem
		}
		if run == 0 {
			break
		}
		b.readable += run
		advanced += run
	}
	b.ooo -= advanced
	return advanced
}

// Read copies up to len(p) in-sequence bytes to the app.
func (b *RecvBuffer) Read(p []byte) int {
	n := min(len(p), b.readable)
	if n == 0 {
		return 0 // nothing readable, perhaps no array yet
	}
	n1 := n
	if n1 > len(b.buf)-b.start {
		n1 = len(b.buf) - b.start
	}
	copy(p[:n1], b.buf[b.start:b.start+n1])
	copy(p[n1:n], b.buf[:n-n1])
	bitmap.ClearRange(b.bits, b.start, b.start+n1)
	bitmap.ClearRange(b.bits, 0, n-n1)
	b.start = b.idx(n)
	b.readable -= n
	return n
}

// SACKRanges appends to dst up to max out-of-order ranges as offsets
// [start, end) relative to rcv.nxt, in sequence order, by scanning the
// presence bitmap beyond the in-sequence frontier. dst is the caller's
// (Conn.sackBlocks keeps it on its stack), so the SACK option costs no
// allocation. With nothing out of order there is no bit to find — ooo
// counts exactly the bits beyond the frontier, which -tags invariants
// checks after every step — and the scan is skipped: that is every
// segment of a loss-free transfer, and every one before the queue has
// an array to scan.
func (b *RecvBuffer) SACKRanges(dst [][2]int, max int) [][2]int {
	if b.ooo == 0 {
		return dst
	}
	win := b.Window()
	i := 1 // offset 0 cannot be present (it would have advanced)
	for n := 0; i < win && n < max; n++ {
		start := b.scanFrom(i, win, true)
		if start >= win {
			break
		}
		i = b.scanFrom(start, win, false)
		dst = append(dst, [2]int{start, i})
	}
	return dst
}
