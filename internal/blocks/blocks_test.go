package blocks

import (
	"math"
	"testing"
	"unsafe"
)

// wide is an element the size of a journey.Reading (216 B): a block of
// them is made whole, like a block of float64s.
type wide [27]int64

// TestBlockLayout: the ramp's constants agree with each other, and
// locate walks every block in order, each to its length, with no gap;
// blockStart names the index each block opens at.
func TestBlockLayout(t *testing.T) {
	if firstBlock<<rampBlocks != blockLen {
		t.Fatalf("ramp of %d blocks from %d does not end at %d", rampBlocks, firstBlock, blockLen)
	}
	b, j := 0, 0
	for i := 0; i < rampLen+3*blockLen; i++ {
		if gb, gj := locate(i); gb != b || gj != j {
			t.Fatalf("locate(%d) = %d, %d, want %d, %d", i, gb, gj, b, j)
		}
		if j == 0 && blockStart(b) != i {
			t.Fatalf("blockStart(%d) = %d, want %d", b, blockStart(b), i)
		}
		if j++; j == blockSize(b) {
			b, j = b+1, 0
		}
	}
}

// checkWalk fills a fresh list to each size that straddles a block
// boundary, and checks that At, Ptr and the block walk all read the
// pushed values in order, and that Bytes counts every slot made.
func checkWalk[T comparable](t *testing.T, val func(i int) T) {
	t.Helper()
	var zero T
	for _, n := range []int{0, 1, firstBlock - 1, firstBlock, firstBlock + 1, rampLen - 1, rampLen, rampLen + 1,
		rampLen + blockLen, rampLen + 3*blockLen + 7} {
		var l List[T]
		for i := 0; i < n; i++ {
			l.Push(val(i))
		}
		if l.Len() != n {
			t.Fatalf("Len() = %d after %d pushes", l.Len(), n)
		}
		for i := 0; i < n; i++ {
			if l.At(i) != val(i) || *l.Ptr(i) != val(i) {
				t.Fatalf("n=%d: value %d reads wrong", n, i)
			}
		}
		i, made := 0, 0
		for b := 0; b < l.Blocks(); b++ {
			blk := l.Block(b)
			if len(blk) == 0 {
				t.Fatalf("n=%d: block %d of %d is empty", n, b, l.Blocks())
			}
			for _, v := range blk {
				if v != val(i) {
					t.Fatalf("n=%d: walk reads value %d wrong", n, i)
				}
				i++
			}
			made += blockSize(b)
		}
		if i != n {
			t.Fatalf("n=%d: the block walk visits %d values", n, i)
		}
		if want := made * int(unsafe.Sizeof(zero)); l.Bytes() != want {
			t.Fatalf("n=%d: Bytes() = %d, want %d", n, l.Bytes(), want)
		}
	}
}

func TestWalk(t *testing.T) {
	checkWalk(t, func(i int) float64 { return float64(i) * 1.5 })
	checkWalk(t, func(i int) wide { return wide{0: int64(i), 26: -int64(i)} })
}

// checkAllocsPerBlock: Push allocates only when it opens a block —
// filling a fresh list to n values costs the same as to n−1 unless value
// n−1 opens a block, where it costs more. Each n's count is the least of
// three measured fills: early in a fresh process the race build's runtime
// makes a few allocations of its own inside a measured run (about five,
// at an n no block opens), which a warm-up run before it does not absorb;
// a fill's own allocations are the same in all three.
func checkAllocsPerBlock[T any](t *testing.T) {
	t.Helper()
	var v T
	prev := 0.0
	for n := 1; n <= rampLen+3*blockLen; n++ {
		a := math.Inf(1)
		for try := 0; try < 3; try++ {
			a = math.Min(a, testing.AllocsPerRun(1, func() {
				var l List[T]
				for i := 0; i < n; i++ {
					l.Push(v)
				}
			}))
		}
		_, j := locate(n - 1)
		if opens := j == 0; opens != (a > prev) || a < prev {
			t.Fatalf("%T: filling to %d values allocates %v, to %d %v; value %d opens a block: %v", v, n, a, n-1, prev, n-1, opens)
		}
		prev = a
	}
}

func TestPushAllocsPerBlock(t *testing.T) {
	checkAllocsPerBlock[float64](t)
	checkAllocsPerBlock[wide](t)
}

// TestResetRefill: a Reset list refilled to its old size allocates
// nothing and reads the new values alone.
func TestResetRefill(t *testing.T) {
	var l List[wide]
	const n = rampLen + 2*blockLen + 5
	for i := 0; i < n; i++ {
		l.Push(wide{0: int64(i)})
	}
	bytes := l.Bytes()
	if a := testing.AllocsPerRun(20, func() {
		l.Reset()
		for i := 0; i < n; i++ {
			l.Push(wide{0: int64(n - i)})
		}
	}); a != 0 {
		t.Fatalf("Reset and a same-size refill allocate %v per run", a)
	}
	if l.Len() != n || l.Bytes() != bytes {
		t.Fatalf("after refill: Len %d, Bytes %d; want %d, %d", l.Len(), l.Bytes(), n, bytes)
	}
	for i := 0; i < n; i++ {
		if l.At(i)[0] != int64(n-i) {
			t.Fatalf("value %d reads %d after the refill, want %d", i, l.At(i)[0], n-i)
		}
	}
	l.Reset()
	l.Push(wide{0: 7})
	if l.Len() != 1 || l.Blocks() != 1 || len(l.Block(0)) != 1 || l.At(0)[0] != 7 {
		t.Fatalf("refilled to one value: Len %d, Blocks %d", l.Len(), l.Blocks())
	}
}

// TestPushPointerStable: the pointer Push returns still reads its value
// after 10 000 more pushes, and a write through it is the list's.
func TestPushPointerStable(t *testing.T) {
	var l List[wide]
	p := l.Push(wide{0: 42, 26: 43})
	for i := 0; i < 10_000; i++ {
		l.Push(wide{0: int64(i)})
	}
	if p[0] != 42 || p[26] != 43 {
		t.Fatalf("the first value reads %d, %d after 10 000 pushes, want 42, 43", p[0], p[26])
	}
	p[0] = 44
	if l.At(0)[0] != 44 {
		t.Fatalf("a write through Push's pointer is not the list's value")
	}
}
