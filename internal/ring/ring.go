// Package ring is the FIFO the tiers above the stack queue values in:
// one backing array that doubles when full and is then reused, so a
// queue in steady state allocates nothing (queue = queue[1:] walks off
// its array and regrows it forever).
package ring

// Ring is a first-in first-out queue; the zero value is empty.
type Ring[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int
}

// Len returns the number of queued values.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(4, 2*len(r.buf)))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// Pop removes and returns the oldest value, zeroing its slot so the
// ring keeps nothing it handed out alive. The ring must not be empty.
func (r *Ring[T]) Pop() (v T) {
	v, r.buf[r.head] = r.buf[r.head], v
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// At returns the i-th oldest queued value, 0 ≤ i < Len(), in place.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }
