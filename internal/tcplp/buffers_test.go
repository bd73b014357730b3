package tcplp

import (
	"bytes"
	"math/rand"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
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

// makeArrays gives c's buffers their arrays now, as a build that made
// them with the connection would.
func makeArrays(c *Conn) {
	c.sndBuf.buf = make([]byte, c.sndBuf.size)
	c.rcvQ.buf = make([]byte, c.rcvQ.size)
	c.rcvQ.bits = make([]uint64, (c.rcvQ.size+63)/64)
}

// oneWay is a finished one-way transfer: every packet on the wire,
// encoded, in send order, and both ends.
type oneWay struct {
	wire           [][]byte
	client, server *Conn
	l              *testLink
}

// runOneWay sends 20 kB from a client on l.a to a server on l.b that
// only reads, over a link that drops every seventh packet the client
// sends (out-of-order arrivals, SACK ranges, retransmissions). The
// server's receive queue holds serverRecv bytes, the client's buffers
// testCfg's four segments. eager makes both ends' arrays at full size
// as each connection appears.
func runOneWay(t *testing.T, eager bool, serverRecv int) oneWay {
	t.Helper()
	cfg := testCfg()
	l := newTestLink(5, 20*sim.Millisecond, cfg)
	l.b.cfg.RecvBufSize = serverRecv
	var r oneWay
	r.l = l
	clientSent := 0
	l.Drop = func(pkt *ip6.Packet) bool {
		if pkt.Src != ip6.AddrFromID(0) {
			return false
		}
		clientSent++
		return clientSent%7 == 0
	}
	for _, st := range []*Stack{l.a, l.b} {
		next := st.Output
		st.Output = func(pkt *ip6.Packet) {
			r.wire = append(r.wire, pkt.AppendEncode(nil))
			next(pkt)
		}
	}

	var got bytes.Buffer
	l.b.Listen(80, func(c *Conn) {
		r.server = c
		if eager {
			makeArrays(c)
		}
		c.OnReadable = func() {
			p := make([]byte, 512)
			for n := c.Read(p); n > 0; n = c.Read(p) {
				got.Write(p[:n])
			}
			if c.EOF() {
				c.Close()
			}
		}
	})
	payload := make([]byte, 20_000)
	rand.New(rand.NewSource(3)).Read(payload)
	r.client = l.a.Connect(ip6.AddrFromID(1), 80)
	if eager {
		makeArrays(r.client)
	}
	off := 0
	pump := func() {
		for off < len(payload) {
			n, err := r.client.Write(payload[off:])
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			if n == 0 {
				return
			}
			off += n
		}
		r.client.Close()
	}
	r.client.OnEstablished, r.client.OnWritable = pump, pump
	l.eng.RunUntil(sim.Time(5 * sim.Minute))
	if !bytes.Equal(got.Bytes(), payload) || r.server.State() != StateClosed {
		t.Fatalf("eager=%v: received %d of %d bytes, server %v", eager, got.Len(), len(payload), r.server.State())
	}
	if r.client.Stats.Retransmits == 0 || r.server.Stats.OutOfOrderSegs == 0 {
		t.Fatalf("eager=%v: the drops caused no retransmission (%d) or out-of-order arrival (%d)",
			eager, r.client.Stats.Retransmits, r.server.Stats.OutOfOrderSegs)
	}
	return r
}

// TestBuffersMadeAtFirstByte: the end that only receives never makes a
// send array and the end that only sends never makes a receive array,
// each stack's BufBytes is exactly the arrays its end made, and nothing
// else differs from a build that makes both arrays at full size with the
// connection: every segment on the wire and both ends' Capacity() and
// Window(). A 64 KiB receiver fed by a four-segment sender and drained
// on every OnReadable makes one array of at most 4 KiB, yet advertises
// what an eager 64 KiB build does.
func TestBuffersMadeAtFirstByte(t *testing.T) {
	cfg := testCfg()
	for _, recv := range []int{cfg.RecvBufSize, 64 << 10} {
		lazy, eager := runOneWay(t, false, recv), runOneWay(t, true, recv)
		if lazy.server.sndBuf.buf != nil || lazy.client.rcvQ.buf != nil || lazy.client.rcvQ.bits != nil {
			t.Fatalf("receive-only server made a %d-byte send array, or send-only client a %d-byte receive array",
				len(lazy.server.sndBuf.buf), len(lazy.client.rcvQ.buf))
		}
		if got := lazy.l.a.Stats.BufBytes; got != uint64(cfg.SendBufSize) {
			t.Fatalf("client stack made %d buffer bytes, want its %d-byte send array", got, cfg.SendBufSize)
		}
		array := len(lazy.server.rcvQ.buf)
		if got, want := lazy.l.b.Stats.BufBytes, uint64(array+8*((array+63)/64)); got != want {
			t.Fatalf("%d-byte receiver: server stack made %d buffer bytes, want its one receive array and bitmap, %d", recv, got, want)
		}
		if array != min(recv, firstArray) || array > 4<<10 {
			t.Fatalf("%d-byte receiver made a %d-byte array", recv, array)
		}
		for _, c := range [][2]*Conn{{lazy.client, eager.client}, {lazy.server, eager.server}} {
			l, e := c[0], c[1]
			if l.sndBuf.Capacity() != e.sndBuf.Capacity() || l.rcvQ.Capacity() != e.rcvQ.Capacity() || l.rcvQ.Window() != e.rcvQ.Window() {
				t.Fatalf("capacities %d/%d and window %d, eager build %d/%d and %d",
					l.sndBuf.Capacity(), l.rcvQ.Capacity(), l.rcvQ.Window(), e.sndBuf.Capacity(), e.rcvQ.Capacity(), e.rcvQ.Window())
			}
		}
		if lazy.server.rcvQ.Capacity() != recv {
			t.Fatalf("server capacity %d, configured %d", lazy.server.rcvQ.Capacity(), recv)
		}
		if len(lazy.wire) != len(eager.wire) {
			t.Fatalf("%d-byte receiver: %d packets on the wire, eager build %d", recv, len(lazy.wire), len(eager.wire))
		}
		for i := range lazy.wire {
			if !bytes.Equal(lazy.wire[i], eager.wire[i]) {
				t.Fatalf("%d-byte receiver: packet %d of %d differs from the eager build's:\n%x\n%x", recv, i, len(lazy.wire), lazy.wire[i], eager.wire[i])
			}
		}
	}
}
