package tcplp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// The §4.3 ablation: the two buffer designs the paper weighs TCPlp's
// choices against, kept beside the tests and benches that compare them
// with the buffers every connection uses (CopySendBuffer, RecvBuffer).
// Neither alternative is reachable from a Conn; run the comparison with
//
//	go test -run=NONE -bench=Ablation ./internal/tcplp/

// sendBuffer is what the send-side tests and bench need of either
// design.
type sendBuffer interface {
	Capacity() int
	Len() int
	Free() int
	Write(p []byte) int
	ReadAt(p []byte, off int) int
	Discard(n int)
}

// receiveQueue is what the receive-side tests and bench need of either
// design.
type receiveQueue interface {
	Capacity() int
	Readable() int
	Window() int
	OutOfOrder() int
	Write(off int, data []byte) (advanced int)
	Read(p []byte) int
	SACKRanges(dst [][2]int, max int) [][2]int
}

// ZeroCopySendBuffer is the linked-list-of-references send buffer. Writes
// of at least AliasThreshold bytes alias the caller's slice (the caller
// must not mutate it until acknowledged — the Lua-string immutability
// contract of §4.3.1); smaller writes are copied into private nodes.
type ZeroCopySendBuffer struct {
	capacity int
	n        int
	head     *sbNode
	tail     *sbNode
	headOff  int // discarded bytes within head node

	// AliasThreshold is the minimum write size that is aliased rather
	// than copied.
	AliasThreshold int

	// Aliased counts bytes accepted without copying (for the ablation
	// bench).
	Aliased int64
}

type sbNode struct {
	data []byte
	next *sbNode
}

// NewZeroCopySendBuffer returns a zero-copy send buffer of the given
// logical capacity.
func NewZeroCopySendBuffer(capacity int) *ZeroCopySendBuffer {
	return &ZeroCopySendBuffer{capacity: capacity, AliasThreshold: 64}
}

// Capacity implements sendBuffer.
func (b *ZeroCopySendBuffer) Capacity() int { return b.capacity }

// Len implements sendBuffer.
func (b *ZeroCopySendBuffer) Len() int { return b.n }

// Free implements sendBuffer.
func (b *ZeroCopySendBuffer) Free() int { return b.capacity - b.n }

// Write implements sendBuffer.
func (b *ZeroCopySendBuffer) Write(p []byte) int {
	w := len(p)
	if w > b.Free() {
		w = b.Free()
	}
	if w == 0 {
		return 0
	}
	var node *sbNode
	if w >= b.AliasThreshold && w == len(p) {
		node = &sbNode{data: p}
		b.Aliased += int64(w)
	} else {
		node = &sbNode{data: append([]byte(nil), p[:w]...)}
	}
	if b.tail == nil {
		b.head, b.tail = node, node
	} else {
		b.tail.next = node
		b.tail = node
	}
	b.n += w
	return w
}

// ReadAt implements sendBuffer.
func (b *ZeroCopySendBuffer) ReadAt(p []byte, off int) int {
	if off < 0 || off >= b.n {
		return 0
	}
	want := len(p)
	if want > b.n-off {
		want = b.n - off
	}
	got := 0
	pos := -b.headOff
	for node := b.head; node != nil && got < want; node = node.next {
		end := pos + len(node.data)
		if end <= off {
			pos = end
			continue
		}
		from := 0
		if off > pos {
			from = off - pos
		}
		got += copy(p[got:want], node.data[from:])
		pos = end
	}
	return got
}

// Discard implements sendBuffer.
func (b *ZeroCopySendBuffer) Discard(n int) {
	if n > b.n {
		n = b.n
	}
	b.n -= n
	n += b.headOff
	b.headOff = 0
	for n > 0 && b.head != nil {
		if n < len(b.head.data) {
			b.headOff = n
			return
		}
		n -= len(b.head.data)
		b.head = b.head.next
	}
	if b.head == nil {
		b.tail = nil
	}
}

// ChainRecvBuffer is the mbuf-chain-style reassembly queue: out-of-order
// segments are kept as separate allocations in a sorted list and spliced
// when the gap fills. It exists to quantify what the in-place design
// saves (ablation bench); FreeBSD's dynamic-buffer risks it carries
// (nondeterministic memory, §4.3.2) do not bite in a Go simulation.
type ChainRecvBuffer struct {
	capacity int
	inseq    []byte
	segs     []chainSeg // sorted by off, non-overlapping
}

type chainSeg struct {
	off  int
	data []byte
}

// NewChainRecvBuffer returns a chain-based reassembly queue.
func NewChainRecvBuffer(capacity int) *ChainRecvBuffer {
	return &ChainRecvBuffer{capacity: capacity}
}

// Capacity implements receiveQueue.
func (b *ChainRecvBuffer) Capacity() int { return b.capacity }

// Readable implements receiveQueue.
func (b *ChainRecvBuffer) Readable() int { return len(b.inseq) }

// Window implements receiveQueue.
func (b *ChainRecvBuffer) Window() int { return b.capacity - len(b.inseq) }

// OutOfOrder implements receiveQueue.
func (b *ChainRecvBuffer) OutOfOrder() int {
	n := 0
	for _, s := range b.segs {
		n += len(s.data)
	}
	return n
}

// Write implements receiveQueue.
func (b *ChainRecvBuffer) Write(off int, data []byte) int {
	if off < 0 {
		if -off >= len(data) {
			return 0
		}
		data = data[-off:]
		off = 0
	}
	win := b.Window()
	if off >= win || len(data) == 0 {
		return 0
	}
	if off+len(data) > win {
		data = data[:win-off]
	}
	b.insert(off, append([]byte(nil), data...))
	// After the merge at most one segment can sit at offset 0 (adjacent
	// segments were coalesced).
	advanced := 0
	if len(b.segs) > 0 && b.segs[0].off == 0 {
		s := b.segs[0]
		b.segs = b.segs[1:]
		b.inseq = append(b.inseq, s.data...)
		advanced = len(s.data)
		b.shift(advanced)
	}
	return advanced
}

// shift rebases segment offsets after rcv.nxt advanced by n.
func (b *ChainRecvBuffer) shift(n int) {
	for i := range b.segs {
		b.segs[i].off -= n
	}
}

// insert merges [off, off+len(data)) into the sorted, non-overlapping
// segment list, coalescing with any overlapping or adjacent segments.
func (b *ChainRecvBuffer) insert(off int, data []byte) {
	end := off + len(data)
	var out []chainSeg
	i := 0
	// Segments strictly before the new range (not even adjacent).
	for ; i < len(b.segs) && b.segs[i].off+len(b.segs[i].data) < off; i++ {
		out = append(out, b.segs[i])
	}
	// Absorb every segment overlapping or touching [off, end).
	for ; i < len(b.segs) && b.segs[i].off <= end; i++ {
		s := b.segs[i]
		sEnd := s.off + len(s.data)
		if s.off < off {
			data = append(append([]byte(nil), s.data[:off-s.off]...), data...)
			off = s.off
		}
		if sEnd > end {
			data = append(data, s.data[len(s.data)-(sEnd-end):]...)
			end = sEnd
		}
	}
	out = append(out, chainSeg{off, data})
	out = append(out, b.segs[i:]...)
	b.segs = out
}

// Read implements receiveQueue.
func (b *ChainRecvBuffer) Read(p []byte) int {
	n := copy(p, b.inseq)
	b.inseq = b.inseq[n:]
	return n
}

// SACKRanges implements receiveQueue.
func (b *ChainRecvBuffer) SACKRanges(dst [][2]int, max int) [][2]int {
	for i, s := range b.segs {
		if i == max {
			break
		}
		dst = append(dst, [2]int{s.off, s.off + len(s.data)})
	}
	return dst
}

func TestSendBufferReadAtOffsets(t *testing.T) {
	for _, mk := range []func() sendBuffer{
		func() sendBuffer { return NewCopySendBuffer(64) },
		func() sendBuffer { return NewZeroCopySendBuffer(64) },
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
	run := func(mk func() sendBuffer, seed int64) bool {
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
		return run(func() sendBuffer { return NewCopySendBuffer(128) }, seed) &&
			run(func() sendBuffer { return NewZeroCopySendBuffer(128) }, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
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
	run := func(q receiveQueue, seed int64) bool {
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
		var q receiveQueue
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

func BenchmarkAblationReassembly(b *testing.B) {
	run := func(b *testing.B, q receiveQueue) {
		rng := rand.New(rand.NewSource(1))
		data := make([]byte, 4096)
		rng.Read(data)
		buf := make([]byte, 512)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Deliver two segments out of order, then the gap filler.
			q.Write(440, data[440:880])
			q.Write(880, data[880:1320])
			q.Write(0, data[:440])
			for q.Readable() > 0 {
				q.Read(buf)
			}
		}
	}
	b.Run("in-place", func(b *testing.B) { run(b, NewRecvBuffer(2048)) })
	b.Run("mbuf-chain", func(b *testing.B) { run(b, NewChainRecvBuffer(2048)) })
}

func BenchmarkAblationSendBuffer(b *testing.B) {
	run := func(b *testing.B, sb sendBuffer) {
		payload := make([]byte, 440)
		out := make([]byte, 440)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sb.Write(payload)
			sb.ReadAt(out, 0)
			sb.Discard(440)
		}
	}
	b.Run("copy", func(b *testing.B) { run(b, NewCopySendBuffer(4096)) })
	b.Run("zero-copy", func(b *testing.B) { run(b, NewZeroCopySendBuffer(4096)) })
}
