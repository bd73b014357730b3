package tcplp

import (
	"math/rand"
	"testing"
)

func TestCopySendBufferBasics(t *testing.T) {
	b := NewCopySendBuffer(10)
	if n := b.Write([]byte("hello")); n != 5 {
		t.Fatalf("write = %d", n)
	}
	if n := b.Write([]byte("world!!")); n != 5 {
		t.Fatalf("overflow write = %d, want 5 (clipped)", n)
	}
	if b.Len() != 10 || b.Free() != 0 {
		t.Fatalf("len=%d free=%d", b.Len(), b.Free())
	}
	p := make([]byte, 10)
	if n := b.ReadAt(p, 0); n != 10 || string(p) != "helloworld" {
		t.Fatalf("readAt = %d %q", n, p)
	}
	b.Discard(5)
	if n := b.ReadAt(p, 0); n != 5 || string(p[:5]) != "world" {
		t.Fatalf("after discard: %d %q", n, p[:5])
	}
	// Wraparound.
	if n := b.Write([]byte("again")); n != 5 {
		t.Fatalf("wrap write = %d", n)
	}
	if n := b.ReadAt(p, 5); n != 5 || string(p[:5]) != "again" {
		t.Fatalf("wrap readAt = %d %q", n, p[:5])
	}
}

func TestRecvBufferInOrder(t *testing.T) {
	b := NewRecvBuffer(16)
	if adv := b.Write(0, []byte("abcd")); adv != 4 {
		t.Fatalf("advance = %d", adv)
	}
	if b.Readable() != 4 || b.Window() != 12 {
		t.Fatalf("readable=%d window=%d", b.Readable(), b.Window())
	}
	p := make([]byte, 4)
	if n := b.Read(p); n != 4 || string(p) != "abcd" {
		t.Fatalf("read %d %q", n, p)
	}
	if b.Window() != 16 {
		t.Fatalf("window after read = %d", b.Window())
	}
}

func TestRecvBufferOutOfOrderHole(t *testing.T) {
	b := NewRecvBuffer(32)
	// Bytes 4..8 arrive first: no advance, OOO recorded, window unchanged.
	if adv := b.Write(4, []byte("wxyz")); adv != 0 {
		t.Fatalf("OOO advance = %d", adv)
	}
	if b.OutOfOrder() != 4 {
		t.Fatalf("ooo = %d", b.OutOfOrder())
	}
	if b.Window() != 32 {
		t.Fatalf("window shrank for OOO data: %d", b.Window())
	}
	rs := b.SACKRanges(nil, 3)
	if len(rs) != 1 || rs[0] != [2]int{4, 8} {
		t.Fatalf("sack ranges = %v", rs)
	}
	// Filling the gap advances across both.
	if adv := b.Write(0, []byte("abcd")); adv != 8 {
		t.Fatalf("gap-fill advance = %d", adv)
	}
	p := make([]byte, 8)
	b.Read(p)
	if string(p) != "abcdwxyz" {
		t.Fatalf("reassembled %q", p)
	}
}

func TestRecvBufferDuplicateAndOverlap(t *testing.T) {
	b := NewRecvBuffer(32)
	b.Write(0, []byte("hello"))
	// Re-delivery of old data (negative offset after rcvNxt advanced by
	// caller): caller passes off=-5 for a full duplicate.
	if adv := b.Write(-5, []byte("hello")); adv != 0 {
		t.Fatalf("duplicate advanced %d", adv)
	}
	// Overlapping: bytes 3..10 where 3..5 are already in-sequence... the
	// conn layer passes off relative to rcvNxt, so overlap appears as a
	// negative offset with new tail bytes.
	if adv := b.Write(-2, []byte("lo-world")); adv != 6 {
		t.Fatalf("overlap advance = %d", adv)
	}
	p := make([]byte, 11)
	n := b.Read(p)
	if string(p[:n]) != "hello-world" {
		t.Fatalf("got %q", p[:n])
	}
}

func TestRecvBufferWindowClipping(t *testing.T) {
	b := NewRecvBuffer(8)
	if adv := b.Write(0, []byte("0123456789")); adv != 8 {
		t.Fatalf("clip advance = %d", adv)
	}
	if b.Window() != 0 {
		t.Fatalf("window = %d", b.Window())
	}
	// Nothing fits now.
	if adv := b.Write(0, []byte("zz")); adv != 0 {
		t.Fatal("write into zero window succeeded")
	}
}

func TestRecvBufferMultipleSACKRanges(t *testing.T) {
	b := NewRecvBuffer(64)
	b.Write(5, []byte("aa"))
	b.Write(10, []byte("bb"))
	b.Write(20, []byte("cc"))
	rs := b.SACKRanges(nil, 4)
	want := [][2]int{{5, 7}, {10, 12}, {20, 22}}
	if len(rs) != 3 {
		t.Fatalf("ranges = %v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("ranges = %v, want %v", rs, want)
		}
	}
	if rs2 := b.SACKRanges(nil, 2); len(rs2) != 2 {
		t.Fatalf("max clipping failed: %v", rs2)
	}
}

// TestSACKRangesNilWhenInOrder: with nothing out of order SACKRanges
// hands its argument back without looking at the bitmap — and the scan
// it skips would have found nothing: through in-order writes and reads
// that wrap a buffer whose last word has spare bits, and after a hole
// has been filled, no bit is set beyond the frontier.
func TestSACKRangesNilWhenInOrder(t *testing.T) {
	b := NewRecvBuffer(100)
	rng := rand.New(rand.NewSource(1))
	p := make([]byte, 100)
	check := func(when string) {
		t.Helper()
		if rs := b.SACKRanges(nil, MaxSACKBlocks); rs != nil {
			t.Fatalf("%s: SACK ranges %v with OutOfOrder() = %d", when, rs, b.OutOfOrder())
		}
		if win := b.Window(); b.scanFrom(0, win, true) != win {
			t.Fatalf("%s: byte %d beyond the frontier marked present, OutOfOrder() = %d", when, b.scanFrom(0, win, true), b.OutOfOrder())
		}
	}
	check("empty")
	for i := 0; i < 500; i++ {
		b.Write(0, p[:rng.Intn(40)])
		check("after an in-order write")
		b.Read(p[:rng.Intn(50)])
		check("after a read")
	}
	b.Read(p)
	b.Write(10, []byte("xx"))
	if rs := b.SACKRanges(nil, MaxSACKBlocks); len(rs) != 1 || rs[0] != [2]int{10, 12} {
		t.Fatalf("hole not reported: %v", rs)
	}
	if adv := b.Write(0, p[:10]); adv != 12 {
		t.Fatalf("gap-fill advance = %d", adv)
	}
	check("after the hole is filled")
}
