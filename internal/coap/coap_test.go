package coap

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
	"tcplp/internal/udp"
)

// GetOption returns the first option with the given number.
func (m *Message) GetOption(num uint16) ([]byte, bool) {
	for _, o := range m.Options {
		if o.Number == num {
			return o.Value, true
		}
	}
	return nil, false
}

// Size returns the block size in bytes.
func (b Block1) Size() int { return 1 << (b.SZX + 4) }

// DecodeBlock1 unpacks a Block1 option value: the inverse the tests and
// FuzzDecodeBlock1 check Block1.AppendEncode against (the server reads
// each block as a whole request and never decodes the option).
func DecodeBlock1(b []byte) (Block1, error) {
	var v uint32
	switch len(b) {
	case 1:
		v = uint32(b[0])
	case 2:
		v = uint32(binary.BigEndian.Uint16(b))
	case 3:
		v = uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2])
	default:
		return Block1{}, ErrBadOption
	}
	return Block1{Num: v >> 4, More: v&0x8 != 0, SZX: uint8(v & 0x7)}, nil
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Type:      CON,
		Code:      CodePOST,
		MessageID: 0xbeef,
		Token:     []byte{1, 2, 3, 4},
		Payload:   []byte("sensor readings"),
	}
	m.AddOption(OptUriPath, []byte("telemetry"))
	m.AddOption(OptContentFormat, []byte{42})
	m.AddOption(OptBlock1, Block1{Num: 3, More: true, SZX: 2}.AppendEncode(nil))
	g, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if g.Type != CON || g.Code != CodePOST || g.MessageID != 0xbeef ||
		!bytes.Equal(g.Token, m.Token) || !bytes.Equal(g.Payload, m.Payload) {
		t.Fatalf("round trip: %+v", g)
	}
	if len(g.Options) != 3 {
		t.Fatalf("options: %+v", g.Options)
	}
	if v, ok := g.GetOption(OptUriPath); !ok || string(v) != "telemetry" {
		t.Fatalf("uri-path: %q %v", v, ok)
	}
	bv, _ := g.GetOption(OptBlock1)
	blk, err := DecodeBlock1(bv)
	if err != nil || blk.Num != 3 || !blk.More || blk.SZX != 2 {
		t.Fatalf("block1: %+v %v", blk, err)
	}
}

func TestEmptyAckRoundTrip(t *testing.T) {
	a := &Message{Type: ACK, Code: CodeChanged, MessageID: 7, Token: []byte{9}}
	g, err := Decode(a.Encode())
	if err != nil || g.Type != ACK || g.Code != CodeChanged || g.MessageID != 7 {
		t.Fatalf("%+v %v", g, err)
	}
}

func TestOptionDeltaEncoding(t *testing.T) {
	// Large option numbers exercise the 13/14 extended-delta paths.
	m := &Message{Type: NON, Code: CodeGET, MessageID: 1}
	m.AddOption(1, []byte{0xaa})
	m.AddOption(300, bytes.Repeat([]byte{0xbb}, 20))
	m.AddOption(2000, bytes.Repeat([]byte{0xcc}, 300))
	g, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Options) != 3 || g.Options[1].Number != 300 || g.Options[2].Number != 2000 {
		t.Fatalf("options: %+v", g.Options)
	}
	if len(g.Options[2].Value) != 300 {
		t.Fatalf("long option value: %d", len(g.Options[2].Value))
	}
}

func TestBlock1Sizes(t *testing.T) {
	for szx := uint8(0); szx <= 6; szx++ {
		b := Block1{Num: 100, More: true, SZX: szx}
		g, err := DecodeBlock1(b.AppendEncode(nil))
		if err != nil || g != b {
			t.Fatalf("szx %d: %+v %v", szx, g, err)
		}
		if g.Size() != 16<<szx {
			t.Fatalf("size(%d) = %d", szx, g.Size())
		}
	}
}

// Property: messages round-trip for arbitrary fields.
func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(typ uint8, code uint8, mid uint16, tok []byte, payload []byte, path []byte) bool {
		if len(tok) > 8 {
			tok = tok[:8]
		}
		m := &Message{Type: Type(typ % 4), Code: Code(code), MessageID: mid, Token: tok, Payload: payload}
		if len(path) > 0 && len(path) < 200 {
			m.AddOption(OptUriPath, path)
		}
		g, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		tokEq := bytes.Equal(g.Token, tok) || (len(tok) == 0 && len(g.Token) == 0)
		// Zero-length payloads decode as nil.
		payEq := bytes.Equal(g.Payload, payload) || (len(payload) == 0 && len(g.Payload) == 0)
		return g.Type == m.Type && g.Code == m.Code && g.MessageID == mid && tokEq && payEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// pipe wires two UDP stacks through a delayed, lossy link.
type pipe struct {
	eng   *sim.Engine
	a, b  *udp.Stack
	delay sim.Duration
	drop  func() bool
}

func newPipe(seed int64, delay sim.Duration) *pipe {
	eng := sim.NewEngine(seed)
	p := &pipe{eng: eng, delay: delay}
	p.a = udp.NewStack(ip6.AddrFromID(0))
	p.b = udp.NewStack(ip6.AddrFromID(1))
	forward := func(to *udp.Stack) func(*ip6.Packet) {
		return func(pkt *ip6.Packet) {
			if p.drop != nil && p.drop() {
				return
			}
			// The sender's slot is lent for this call only: the link
			// carries its own copy.
			cp := *pkt
			cp.Payload = append([]byte(nil), pkt.Payload...)
			eng.Schedule(p.delay, func() { to.Input(&cp) })
		}
	}
	p.a.Output = forward(p.b)
	p.b.Output = forward(p.a)
	return p
}

func TestConfirmableExchange(t *testing.T) {
	p := newPipe(1, 20*sim.Millisecond)
	srv := NewServer(p.eng, p.b, DefaultPort)
	var got []byte
	srv.OnPost = func(src ip6.Addr, payload []byte) Code {
		got = append(got, payload...) // the payload is the server's after the call
		return CodeChanged
	}
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	ok := false
	cl.PostJID("t", []byte("reading"), true, nil, 0, func(_ []byte, s bool) { ok = s })
	p.eng.RunUntil(sim.Time(sim.Second))
	if !ok || string(got) != "reading" {
		t.Fatalf("exchange: ok=%v got=%q", ok, got)
	}
	if cl.Stats.Retransmissions != 0 {
		t.Fatalf("retransmissions on a clean link: %d", cl.Stats.Retransmissions)
	}
}

func TestRetransmissionRecoversLoss(t *testing.T) {
	p := newPipe(2, 20*sim.Millisecond)
	drops := 2
	p.drop = func() bool {
		if drops > 0 {
			drops--
			return true
		}
		return false
	}
	srv := NewServer(p.eng, p.b, DefaultPort)
	delivered := 0
	srv.OnPost = func(ip6.Addr, []byte) Code { delivered++; return CodeChanged }
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	ok := false
	cl.PostJID("t", []byte("x"), true, nil, 0, func(_ []byte, s bool) { ok = s })
	p.eng.RunUntil(sim.Time(30 * sim.Second))
	if !ok || delivered != 1 {
		t.Fatalf("ok=%v delivered=%d", ok, delivered)
	}
	if cl.Stats.Retransmissions == 0 {
		t.Fatal("no retransmissions recorded")
	}
}

// TestExponentialBackoffUnderLoss pins the CON retransmission schedule:
// with the channel blacked out, successive retransmissions must be
// spaced by exactly doubling intervals (RFC 7252 binary exponential
// backoff over the dithered initial RTO).
func TestExponentialBackoffUnderLoss(t *testing.T) {
	p := newPipe(7, 20*sim.Millisecond)
	var txTimes []sim.Time
	p.a.Output = func(pkt *ip6.Packet) {
		txTimes = append(txTimes, p.eng.Now())
		// Blackout: nothing reaches the server.
	}
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	cl.PostJID("t", []byte("x"), true, nil, 0, nil)
	p.eng.RunUntil(sim.Time(5 * sim.Minute))
	if len(txTimes) != 1+MaxRetransmit {
		t.Fatalf("transmissions = %d, want %d", len(txTimes), 1+MaxRetransmit)
	}
	first := txTimes[1].Sub(txTimes[0])
	if first < AckTimeout || float64(first) > float64(AckTimeout)*AckRandomFactor {
		t.Fatalf("initial RTO %v outside [ACK_TIMEOUT, ACK_TIMEOUT*1.5]", first)
	}
	for i := 2; i < len(txTimes); i++ {
		gap := txTimes[i].Sub(txTimes[i-1])
		prev := txTimes[i-1].Sub(txTimes[i-2])
		if gap != 2*prev {
			t.Fatalf("retransmission %d gap %v, want exactly double %v", i, gap, prev)
		}
	}
}

// TestDedupUnderSustainedAckLoss drives the §9.1 server contract under
// loss: every retransmitted CON is answered from the message-ID dedup
// cache, the handler runs once, and the exchange still completes.
func TestDedupUnderSustainedAckLoss(t *testing.T) {
	p := newPipe(8, 20*sim.Millisecond)
	ackDrops := 3
	origOut := p.b.Output
	p.b.Output = func(pkt *ip6.Packet) {
		if ackDrops > 0 {
			ackDrops--
			return
		}
		origOut(pkt)
	}
	srv := NewServer(p.eng, p.b, DefaultPort)
	delivered := 0
	srv.OnPost = func(ip6.Addr, []byte) Code { delivered++; return CodeChanged }
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	ok := false
	cl.PostJID("t", []byte("x"), true, nil, 0, func(_ []byte, s bool) { ok = s })
	p.eng.RunUntil(sim.Time(5 * sim.Minute))
	if !ok {
		t.Fatal("exchange failed despite retransmission budget")
	}
	if delivered != 1 {
		t.Fatalf("handler ran %d times, want 1 (message-ID dedup)", delivered)
	}
	if srv.Stats.Duplicates != 3 {
		t.Fatalf("duplicates = %d, want 3 (one per lost ACK)", srv.Stats.Duplicates)
	}
	if cl.Stats.Retransmissions != 3 {
		t.Fatalf("retransmissions = %d, want 3", cl.Stats.Retransmissions)
	}
	// A fresh message ID is a fresh exchange, not a duplicate.
	delivered = 0
	cl.PostJID("t", []byte("y"), true, nil, 0, nil)
	p.eng.RunUntil(sim.Time(10 * sim.Minute))
	if delivered != 1 || srv.Stats.Duplicates != 3 {
		t.Fatalf("second exchange: delivered=%d duplicates=%d", delivered, srv.Stats.Duplicates)
	}
}

func TestGiveUpAfterMaxRetransmit(t *testing.T) {
	p := newPipe(3, 20*sim.Millisecond)
	p.drop = func() bool { return true } // blackout
	NewServer(p.eng, p.b, DefaultPort)
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	result := -1
	cl.PostJID("t", []byte("x"), true, nil, 0, func(_ []byte, s bool) {
		if s {
			result = 1
		} else {
			result = 0
		}
	})
	p.eng.RunUntil(sim.Time(5 * sim.Minute))
	if result != 0 {
		t.Fatalf("result = %d, want give-up", result)
	}
	if cl.Stats.Retransmissions != MaxRetransmit {
		t.Fatalf("retransmissions = %d, want %d", cl.Stats.Retransmissions, MaxRetransmit)
	}
}

func TestServerDeduplicatesRetransmissions(t *testing.T) {
	p := newPipe(4, 20*sim.Millisecond)
	// Drop the server's ACKs (b→a direction) once.
	ackDrops := 1
	origOut := p.b.Output
	p.b.Output = func(pkt *ip6.Packet) {
		if ackDrops > 0 {
			ackDrops--
			return
		}
		origOut(pkt)
	}
	srv := NewServer(p.eng, p.b, DefaultPort)
	delivered := 0
	srv.OnPost = func(ip6.Addr, []byte) Code { delivered++; return CodeChanged }
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	ok := false
	cl.PostJID("t", []byte("x"), true, nil, 0, func(_ []byte, s bool) { ok = s })
	p.eng.RunUntil(sim.Time(30 * sim.Second))
	if !ok {
		t.Fatal("exchange failed")
	}
	if delivered != 1 {
		t.Fatalf("handler ran %d times, want 1 (dedup)", delivered)
	}
	if srv.Stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d", srv.Stats.Duplicates)
	}
}

func TestNonconfirmableNoAck(t *testing.T) {
	p := newPipe(5, 20*sim.Millisecond)
	srv := NewServer(p.eng, p.b, DefaultPort)
	delivered := 0
	srv.OnPost = func(ip6.Addr, []byte) Code { delivered++; return CodeChanged }
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	cl.PostJID("t", []byte("x"), false, nil, 0, nil)
	cl.PostJID("t", []byte("y"), false, nil, 0, nil)
	p.eng.RunUntil(sim.Time(sim.Second))
	if delivered != 2 {
		t.Fatalf("delivered = %d", delivered)
	}
	if srv.Stats.NonPosts != 2 || cl.Stats.Responses != 0 {
		t.Fatalf("non stats: %+v %+v", srv.Stats, cl.Stats)
	}
}

func TestNSTARTSerialization(t *testing.T) {
	p := newPipe(6, 50*sim.Millisecond)
	srv := NewServer(p.eng, p.b, DefaultPort)
	var order []string
	srv.OnPost = func(src ip6.Addr, payload []byte) Code {
		order = append(order, string(payload))
		return CodeChanged
	}
	cl := NewClient(p.eng, p.a, ip6.AddrFromID(1), DefaultPort)
	for _, s := range []string{"one", "two", "three"} {
		cl.PostJID("t", []byte(s), true, nil, 0, nil)
	}
	if cl.Pending() != 3 {
		t.Fatalf("pending = %d", cl.Pending())
	}
	p.eng.RunUntil(sim.Time(5 * sim.Second))
	if len(order) != 3 || order[0] != "one" || order[1] != "two" || order[2] != "three" {
		t.Fatalf("order: %v", order)
	}
}

func TestCoCoAStrongSamplesTightenRTO(t *testing.T) {
	c := NewCoCoA()
	for i := 0; i < 30; i++ {
		c.OnResponse(100*sim.Millisecond, 0)
	}
	if c.OverallRTO() > 500*sim.Millisecond {
		t.Fatalf("overall RTO = %v after fast strong samples", c.OverallRTO())
	}
}

func TestCoCoAWeakSamplesInflateRTO(t *testing.T) {
	// The §9.4 pathology: retransmitted exchanges feed multi-second
	// "RTTs" (measured from the first transmission) into the weak
	// estimator, blowing up the overall RTO.
	c := NewCoCoA()
	for i := 0; i < 10; i++ {
		c.OnResponse(150*sim.Millisecond, 0)
	}
	tight := c.OverallRTO()
	for i := 0; i < 10; i++ {
		c.OnResponse(5*sim.Second, 1) // RTO-worth of delay counted as RTT
	}
	if c.OverallRTO() < 2*tight {
		t.Fatalf("weak samples did not inflate RTO: %v → %v", tight, c.OverallRTO())
	}
}

func TestCoCoAVariableBackoff(t *testing.T) {
	c := NewCoCoA()
	c.overall = 500 * sim.Millisecond
	if got := c.Backoff(500 * sim.Millisecond); got != 1500*sim.Millisecond {
		t.Fatalf("small-RTO backoff = %v, want ×3", got)
	}
	c.overall = 2 * sim.Second
	if got := c.Backoff(2 * sim.Second); got != 4*sim.Second {
		t.Fatalf("mid-RTO backoff = %v, want ×2", got)
	}
	c.overall = 5 * sim.Second
	if got := c.Backoff(4 * sim.Second); got != 6*sim.Second {
		t.Fatalf("large-RTO backoff = %v, want ×1.5", got)
	}
}

func TestDefaultPolicyRTODither(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var d DefaultPolicy
	for i := 0; i < 100; i++ {
		rto := d.InitialRTO(rng)
		if rto < AckTimeout || rto > 3*sim.Second {
			t.Fatalf("initial RTO %v outside [2s,3s]", rto)
		}
	}
}

// wiredServer is a server on b fed synchronously by clients on stacks
// of their own: a datagram is handled inside the Send that carries it,
// with no copy and no event, so the server's cost is all there is.
type wiredServer struct {
	eng   *sim.Engine
	srv   *Server
	b     *udp.Stack
	acks  [][]byte // the ACKs the server sent, when kept
	keep  bool
	msg   []byte
	stack map[int]*udp.Stack
}

func newWiredServer() *wiredServer {
	w := &wiredServer{eng: sim.NewEngine(1), b: udp.NewStack(ip6.AddrFromID(0)), stack: map[int]*udp.Stack{}}
	w.b.Output = func(pkt *ip6.Packet) {
		if w.keep {
			d, err := udp.Decode(pkt.Payload)
			if err != nil {
				panic(err)
			}
			w.acks = append(w.acks, append([]byte(nil), d.Payload...))
		}
	}
	w.srv = NewServer(w.eng, w.b, DefaultPort)
	return w
}

// post sends a CON POST with message ID mid from client id.
func (w *wiredServer) post(id int, mid uint16) {
	a := w.stack[id]
	if a == nil {
		a = udp.NewStack(ip6.AddrFromID(id))
		a.Output = w.b.Input
		w.stack[id] = a
	}
	m := Message{Type: CON, Code: CodePOST, MessageID: mid, Token: []byte{byte(id), byte(mid)}, Payload: []byte("reading")}
	w.msg = m.AppendEncode(w.msg[:0])
	a.Send(ip6.AddrFromID(0), DefaultPort, 5000, w.msg)
}

// TestServerDedupLifetime: a retransmission is answered from the
// client's record, with the ACK first sent, until exchangeLifetime has
// passed since the exchange; from then on the same message ID is a new
// exchange and is delivered again. Records are per client: another
// client's equal message ID is its own exchange.
func TestServerDedupLifetime(t *testing.T) {
	w := newWiredServer()
	w.keep = true
	delivered := 0
	w.srv.OnPost = func(ip6.Addr, []byte) Code { delivered++; return CodeChanged }
	at := func(d sim.Duration, f func()) {
		w.eng.Schedule(d-sim.Duration(w.eng.Now()), f)
		w.eng.RunUntil(sim.Time(d))
	}
	at(sim.Second, func() { w.post(1, 7) })
	at(2*sim.Second, func() { w.post(2, 7) })
	at(3*sim.Second, func() { w.post(1, 8) })
	if delivered != 3 || w.srv.Stats.Duplicates != 0 || w.srv.DedupPeak() != 3 {
		t.Fatalf("three exchanges from two clients: delivered %d, duplicates %d, peak %d", delivered, w.srv.Stats.Duplicates, w.srv.DedupPeak())
	}
	at(sim.Second+exchangeLifetime-1, func() { w.post(1, 7) })
	if delivered != 3 || w.srv.Stats.Duplicates != 1 {
		t.Fatalf("retransmission inside the lifetime: delivered %d, duplicates %d", delivered, w.srv.Stats.Duplicates)
	}
	if last := w.acks[len(w.acks)-1]; !bytes.Equal(last, w.acks[0]) {
		t.Fatalf("replayed ACK %x, first sent %x", last, w.acks[0])
	}
	at(sim.Second+exchangeLifetime, func() { w.post(1, 7) })
	if delivered != 4 || w.srv.Stats.Duplicates != 1 {
		t.Fatalf("message ID reused at the lifetime's end: delivered %d, duplicates %d", delivered, w.srv.Stats.Duplicates)
	}
	// Client 1's expired exchange went; its message 8 (alive) and the
	// new 7 are what it holds, beside client 2's one.
	if n := w.srv.clients[0].answered.Len(); n != 2 || w.srv.held != 3 {
		t.Fatalf("client 1 holds %d exchanges, the server %d; want 2 and 3", n, w.srv.held)
	}
	at(3*sim.Second+exchangeLifetime-1, func() { w.post(1, 8) })
	if delivered != 4 || w.srv.Stats.Duplicates != 2 {
		t.Fatalf("message 8 inside its lifetime: delivered %d, duplicates %d", delivered, w.srv.Stats.Duplicates)
	}
}

// TestServerSteadyStateAllocs: a client posting once a second, with
// every tenth exchange retransmitted, costs the server no allocation
// once its record has held a lifetime of exchanges; the record then
// holds one lifetime's worth, never more.
func TestServerSteadyStateAllocs(t *testing.T) {
	w := newWiredServer()
	var mid uint16
	var tick func()
	tick = func() {
		mid++
		w.post(1, mid)
		if mid%10 == 0 {
			w.post(1, mid)
		}
		w.eng.Schedule(sim.Second, tick)
	}
	w.eng.Schedule(sim.Second, tick)
	w.eng.RunFor(exchangeLifetime + 30*sim.Second)
	if n := testing.AllocsPerRun(1, func() { w.eng.RunFor(60 * sim.Second) }); n != 0 {
		t.Fatalf("%v allocations over two minutes of a steady CON stream", n)
	}
	if lifetime := int(exchangeLifetime / sim.Second); w.srv.held != lifetime || w.srv.DedupPeak() != lifetime {
		t.Fatalf("held %d exchanges, peak %d; want one per second of the %d s lifetime", w.srv.held, w.srv.DedupPeak(), lifetime)
	}
	if w.srv.Stats.Duplicates == 0 {
		t.Fatal("no retransmission was answered from the record")
	}
}
