package tcplp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestSendBufferReadAtOffsets(t *testing.T) {
	for _, mk := range []func() SendBuffer{
		func() SendBuffer { return NewCopySendBuffer(64) },
		func() SendBuffer { return NewZeroCopySendBuffer(64) },
	} {
		b := mk()
		b.Write([]byte("0123456789"))
		p := make([]byte, 4)
		if n := b.ReadAt(p, 3); n != 4 || string(p) != "3456" {
			t.Fatalf("%T ReadAt(3) = %d %q", b, n, p)
		}
		if n := b.ReadAt(p, 9); n != 1 || p[0] != '9' {
			t.Fatalf("%T ReadAt(9) = %d %q", b, n, p[:1])
		}
		if n := b.ReadAt(p, 10); n != 0 {
			t.Fatalf("%T ReadAt(10) = %d", b, n)
		}
		if n := b.ReadAt(p, -1); n != 0 {
			t.Fatalf("%T ReadAt(-1) = %d", b, n)
		}
	}
}

func TestZeroCopyAliasing(t *testing.T) {
	b := NewZeroCopySendBuffer(1024)
	big := bytes.Repeat([]byte("x"), 256)
	b.Write(big)
	if b.Aliased != 256 {
		t.Fatalf("aliased = %d, want 256", b.Aliased)
	}
	small := []byte("abc")
	b.Write(small)
	if b.Aliased != 256 {
		t.Fatalf("small writes must be copied; aliased = %d", b.Aliased)
	}
	// Partial node discard must keep offsets straight: 156 'x' bytes
	// remain, then "abc".
	b.Discard(100)
	p := make([]byte, 4)
	if n := b.ReadAt(p, 155); n != 4 || string(p) != "xabc" {
		t.Fatalf("after partial discard: %d %q", n, p)
	}
	if n := b.ReadAt(p, 156); n != 3 || string(p[:3]) != "abc" {
		t.Fatalf("tail read: %d %q", n, p[:3])
	}
}

// Property: both send buffers behave identically to a reference byte
// slice under random write/readat/discard sequences.
func TestQuickSendBufferEquivalence(t *testing.T) {
	run := func(mk func() SendBuffer, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := mk()
		var ref []byte
		for op := 0; op < 200; op++ {
			switch rng.Intn(3) {
			case 0: // write
				n := rng.Intn(40)
				data := make([]byte, n)
				rng.Read(data)
				took := b.Write(data)
				want := min(n, b.Capacity()-len(ref))
				if took != want {
					return false
				}
				ref = append(ref, data[:took]...)
			case 1: // readAt
				if len(ref) == 0 {
					continue
				}
				off := rng.Intn(len(ref))
				p := make([]byte, rng.Intn(32)+1)
				n := b.ReadAt(p, off)
				want := min(len(p), len(ref)-off)
				if n != want || !bytes.Equal(p[:n], ref[off:off+n]) {
					return false
				}
			case 2: // discard
				n := rng.Intn(len(ref) + 5)
				b.Discard(n)
				if n > len(ref) {
					n = len(ref)
				}
				ref = ref[n:]
			}
			if b.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		return run(func() SendBuffer { return NewCopySendBuffer(128) }, seed) &&
			run(func() SendBuffer { return NewZeroCopySendBuffer(128) }, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
	rs := b.SACKRanges(3)
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
	rs := b.SACKRanges(4)
	want := [][2]int{{5, 7}, {10, 12}, {20, 22}}
	if len(rs) != 3 {
		t.Fatalf("ranges = %v", rs)
	}
	for i := range want {
		if rs[i] != want[i] {
			t.Fatalf("ranges = %v, want %v", rs, want)
		}
	}
	if rs2 := b.SACKRanges(2); len(rs2) != 2 {
		t.Fatalf("max clipping failed: %v", rs2)
	}
}

// Property: the in-place reassembly queue and the chain queue agree with
// a reference model under random segment arrivals and reads. This is the
// paper's Fig. 1b structure under adversarial reordering.
func TestQuickReceiveQueueEquivalence(t *testing.T) {
	type model struct {
		stream []byte // the true stream content
		next   int    // rcvNxt position in stream
		unread []byte
	}
	run := func(q ReceiveQueue, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]byte, 4096)
		rng.Read(stream)
		m := model{stream: stream}
		for op := 0; op < 300; op++ {
			if rng.Intn(3) != 0 { // segment arrival
				// Pick a segment at a random offset around rcvNxt.
				off := rng.Intn(64) - 8
				ln := rng.Intn(48) + 1
				if m.next+off < 0 {
					off = -m.next
				}
				if m.next+off+ln > len(stream) {
					continue
				}
				data := stream[m.next+off : m.next+off+ln]
				adv := q.Write(off, data)
				// Model: mark arrivals, compute expected advance.
				if adv > 0 {
					m.unread = append(m.unread, stream[m.next:m.next+adv]...)
					m.next += adv
				}
				if q.Readable() != len(m.unread) {
					return false
				}
			} else { // read
				p := make([]byte, rng.Intn(64)+1)
				n := q.Read(p)
				want := min(len(p), len(m.unread))
				if n != want || !bytes.Equal(p[:n], m.unread[:n]) {
					return false
				}
				m.unread = m.unread[n:]
			}
			if q.Window() != q.Capacity()-q.Readable() {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		return run(NewRecvBuffer(256), seed) && run(NewChainRecvBuffer(256), seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: whatever order segments of a stream arrive in, reading out
// the queue reproduces the stream prefix exactly.
func TestQuickReassemblyByteExact(t *testing.T) {
	f := func(seed int64, chain bool) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := make([]byte, 1000)
		rng.Read(stream)
		var q ReceiveQueue
		if chain {
			q = NewChainRecvBuffer(2048)
		} else {
			q = NewRecvBuffer(2048)
		}
		// Split into segments, deliver in random order with duplicates.
		type seg struct{ off, n int }
		var segs []seg
		for off := 0; off < len(stream); {
			n := rng.Intn(90) + 10
			if off+n > len(stream) {
				n = len(stream) - off
			}
			segs = append(segs, seg{off, n})
			off += n
		}
		order := rng.Perm(len(segs))
		order = append(order, order[:len(order)/2]...) // duplicates
		next := 0
		for _, i := range order {
			s := segs[i]
			adv := q.Write(s.off-next, stream[s.off:s.off+s.n])
			next += adv
		}
		if next != len(stream) {
			return false
		}
		out := make([]byte, len(stream))
		if q.Read(out) != len(stream) {
			return false
		}
		return bytes.Equal(out, stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
