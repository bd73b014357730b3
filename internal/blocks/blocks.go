// Package blocks provides List, the append-only list the simulator keeps
// its long records in: latency samples (stats.Sample) and a traced run's
// journey records (obs/journey).
//
// A List's values live in blocks that double from firstBlock values to
// blockLen and then stay at blockLen. A block is made when the list
// reaches it and is never copied or regrown after, so a list allocates
// about what it holds — not the ×1.25 regrowth chain of one flat slice —
// and a pointer to a value stays valid as the list grows. The doubling
// ramp keeps a list of a few values as small as a slice of them.
package blocks

import (
	"math/bits"
	"unsafe"
)

// A List's blocks double from firstBlock values to blockLen, then stay at
// blockLen: rampBlocks blocks shorter than blockLen, which together hold
// rampLen.
const (
	firstBlock = 16
	blockLen   = 512
	rampBlocks = 5 // firstBlock<<rampBlocks == blockLen
	rampLen    = firstBlock * (1<<rampBlocks - 1)
)

// locate returns the block and offset of value i.
func locate(i int) (b, j int) {
	if i < rampLen {
		b = bits.Len(uint(i/firstBlock+1)) - 1
		return b, i - firstBlock*(1<<b-1)
	}
	i -= rampLen
	return rampBlocks + i/blockLen, i % blockLen
}

// blockSize is how many values block b holds.
func blockSize(b int) int {
	if b < rampBlocks {
		return firstBlock << b
	}
	return blockLen
}

// blockStart is the index of block b's first value: what blocks 0 to
// b−1 hold together.
func blockStart(b int) int {
	if b <= rampBlocks {
		return firstBlock * (1<<b - 1)
	}
	return rampLen + (b-rampBlocks)*blockLen
}

// List is an append-only list of T. The zero value is empty and ready to
// use; its header is one slice and a count.
type List[T any] struct {
	blocks [][]T // all full but the last that holds values
	n      int
}

// Push appends v and returns a pointer to the stored value, valid for the
// list's life: blocks never move. After a Reset the pointer's slot is
// reused by a later Push.
func (l *List[T]) Push(v T) *T {
	b, j := locate(l.n)
	if b == len(l.blocks) {
		l.blocks = append(l.blocks, make([]T, blockSize(b)))
	}
	p := &l.blocks[b][j]
	*p = v
	l.n++
	return p
}

// Len returns the number of values.
func (l *List[T]) Len() int { return l.n }

// At returns value i (0 ≤ i < Len).
func (l *List[T]) At(i int) T { return *l.Ptr(i) }

// Ptr returns a pointer to value i (0 ≤ i < Len).
func (l *List[T]) Ptr(i int) *T {
	b, j := locate(i)
	return &l.blocks[b][j]
}

// Reset empties the list and keeps its blocks, so refilling it allocates
// nothing until it outgrows them.
func (l *List[T]) Reset() { l.n = 0 }

// Blocks returns how many blocks hold values. Walking Block(0) to
// Block(Blocks()−1) visits every value in Push order.
func (l *List[T]) Blocks() int {
	if l.n == 0 {
		return 0
	}
	b, _ := locate(l.n - 1)
	return b + 1
}

// Block returns block b's values (0 ≤ b < Blocks): the whole block but
// for the last, which ends at Len.
func (l *List[T]) Block(b int) []T {
	blk := l.blocks[b]
	return blk[:min(len(blk), l.n-blockStart(b))]
}

// Bytes returns the bytes of the blocks the list has made, the unfilled
// slots included.
func (l *List[T]) Bytes() int {
	var zero T
	return blockStart(len(l.blocks)) * int(unsafe.Sizeof(zero))
}
