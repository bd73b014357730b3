package tcplp

// CopySendBuffer is the send buffer of every connection: a flat
// circular buffer of unacknowledged and unsent outbound bytes (§4.3.1 —
// one copy in, deterministic footprint). Offsets are relative to the
// oldest unacknowledged byte (snd.una). The zero-copy alternative the
// paper's TinyOS port used is kept for the §4.3 ablation only
// (ablation_test.go).
//
// The array is made at the first byte written, so an end that only
// receives — a collector's sink — never holds one. That is the
// simulator's host memory only: the modelled footprint (the table of
// internal/experiments/static.go) is the configured capacity either
// way, as on a mote whose buffers are static.
type CopySendBuffer struct {
	buf   []byte // nil until the first byte is written
	size  int
	start int
	n     int
}

// NewCopySendBuffer returns a circular send buffer of the given capacity.
func NewCopySendBuffer(capacity int) *CopySendBuffer {
	return &CopySendBuffer{size: capacity}
}

// Capacity is the maximum number of buffered bytes.
func (b *CopySendBuffer) Capacity() int { return b.size }

// Len is the number of buffered bytes.
func (b *CopySendBuffer) Len() int { return b.n }

// Free is Capacity − Len.
func (b *CopySendBuffer) Free() int { return b.size - b.n }

// made is the bytes of array the buffer has made: 0 or its capacity.
func (b *CopySendBuffer) made() int { return len(b.buf) }

// Write appends up to len(p) bytes, returning how many were taken.
func (b *CopySendBuffer) Write(p []byte) int {
	w := min(len(p), b.Free())
	if w == 0 {
		return 0
	}
	if b.buf == nil {
		b.buf = make([]byte, b.size)
	}
	// At most one wrap: copy the run to the end of the buffer, then the rest.
	pos := (b.start + b.n) % len(b.buf)
	n1 := copy(b.buf[pos:], p[:w])
	copy(b.buf, p[n1:w])
	b.n += w
	return w
}

// ReadAt copies buffered bytes starting at offset off into p,
// returning the count (0 if off ≥ Len).
func (b *CopySendBuffer) ReadAt(p []byte, off int) int {
	if off < 0 || off >= b.n {
		return 0
	}
	r := len(p)
	if r > b.n-off {
		r = b.n - off
	}
	pos := (b.start + off) % len(b.buf)
	n1 := copy(p[:r], b.buf[pos:])
	copy(p[n1:r], b.buf[:r-n1])
	return r
}

// Discard drops n acknowledged bytes from the front.
func (b *CopySendBuffer) Discard(n int) {
	if n > b.n {
		n = b.n
	}
	if n <= 0 {
		return // nothing buffered, perhaps no array yet
	}
	b.start = (b.start + n) % len(b.buf)
	b.n -= n
}
