package tcplp

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
)

// testLink wires two stacks together with a fixed one-way delay and
// optional per-packet drop/jitter hooks — a pure transport-layer test
// bench with no radio underneath.
type testLink struct {
	eng   *sim.Engine
	a, b  *Stack
	delay sim.Duration
	// Drop returns true to discard a packet (called per packet).
	Drop func(pkt *ip6.Packet) bool
	// Jitter returns extra per-packet delay (reordering source).
	Jitter func() sim.Duration
	// CE marks packets with ECN Congestion Experienced.
	CE func(pkt *ip6.Packet) bool

	delivered uint64
	dropped   uint64
}

func newTestLink(seed int64, delay sim.Duration, cfg Config) *testLink {
	eng := sim.NewEngine(seed)
	l := &testLink{eng: eng, delay: delay}
	l.a = NewStack(eng, ip6.AddrFromID(0), cfg)
	l.b = NewStack(eng, ip6.AddrFromID(1), cfg)
	l.a.Output = func(pkt *ip6.Packet) { l.forward(pkt, l.b) }
	l.b.Output = func(pkt *ip6.Packet) { l.forward(pkt, l.a) }
	return l
}

func (l *testLink) forward(pkt *ip6.Packet, to *Stack) {
	if l.Drop != nil && l.Drop(pkt) {
		l.dropped++
		return
	}
	if l.CE != nil && l.CE(pkt) {
		pkt.SetECN(ip6.CE)
	}
	d := l.delay
	if l.Jitter != nil {
		d += l.Jitter()
	}
	l.delivered++
	l.eng.Schedule(d, func() { to.Input(pkt) })
}

// transfer moves n bytes from a client on l.a to a server on l.b,
// returning the received bytes and the client connection.
func (l *testLink) transfer(t *testing.T, n int, deadline sim.Duration) ([]byte, *Conn) {
	t.Helper()
	var received bytes.Buffer
	var serverConn *Conn
	done := false
	l.b.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnReadable = func() {
			buf := make([]byte, 2048)
			for {
				r := c.Read(buf)
				if r == 0 {
					break
				}
				received.Write(buf[:r])
			}
			if c.EOF() {
				c.Close()
				done = true
			}
		}
	})

	payload := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(payload)
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	var clientErr error
	client.OnClosed = func(err error) { clientErr = err }
	sent := 0
	pump := func() {
		for sent < n {
			w, err := client.Write(payload[sent:])
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			if w == 0 {
				return
			}
			sent += w
		}
		if sent == n && !client.finQueued {
			client.Close()
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump

	l.eng.RunUntil(sim.Time(deadline))
	if !done {
		t.Fatalf("transfer incomplete: sent=%d received=%d state=%v/%v clientErr=%v stats=%+v",
			sent, received.Len(), client.State(), stateOf(serverConn), clientErr, client.Stats)
	}
	if !bytes.Equal(received.Bytes(), payload) {
		t.Fatalf("received %d bytes, corrupted=%v", received.Len(), !bytes.Equal(received.Bytes(), payload))
	}
	return received.Bytes(), client
}

func stateOf(c *Conn) State {
	if c == nil {
		return StateClosed
	}
	return c.State()
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.MSS = 408
	cfg.SendBufSize = 4 * 408
	cfg.RecvBufSize = 4 * 408
	return cfg
}

func TestHandshakeAndClose(t *testing.T) {
	l := newTestLink(1, 10*sim.Millisecond, testCfg())
	established := 0
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c; established++ })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnEstablished = func() { established++ }
	l.eng.RunUntil(sim.Time(sim.Second))
	if established != 2 {
		t.Fatalf("established = %d", established)
	}
	if client.State() != StateEstablished || server.State() != StateEstablished {
		t.Fatalf("states: %v %v", client.State(), server.State())
	}
	// Graceful close from client side.
	client.Close()
	l.eng.Schedule(200*sim.Millisecond, func() { server.Close() })
	l.eng.RunUntil(sim.Time(30 * sim.Second))
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("after close: %v %v", client.State(), server.State())
	}
}

func TestBulkTransferClean(t *testing.T) {
	l := newTestLink(2, 20*sim.Millisecond, testCfg())
	_, client := l.transfer(t, 50_000, 5*sim.Minute)
	if client.Stats.Retransmits > 0 {
		t.Fatalf("retransmits on a clean link: %d", client.Stats.Retransmits)
	}
}

func TestBulkTransferWithLoss(t *testing.T) {
	l := newTestLink(3, 20*sim.Millisecond, testCfg())
	rng := rand.New(rand.NewSource(4))
	l.Drop = func(pkt *ip6.Packet) bool { return rng.Float64() < 0.05 }
	_, client := l.transfer(t, 30_000, 10*sim.Minute)
	if client.Stats.Retransmits == 0 {
		t.Fatal("no retransmits despite 5% loss")
	}
}

func TestBulkTransferHeavyLossAndReordering(t *testing.T) {
	l := newTestLink(4, 15*sim.Millisecond, testCfg())
	rng := rand.New(rand.NewSource(5))
	l.Drop = func(pkt *ip6.Packet) bool { return rng.Float64() < 0.15 }
	l.Jitter = func() sim.Duration {
		return sim.Duration(rng.Int63n(int64(40 * sim.Millisecond)))
	}
	l.transfer(t, 20_000, 20*sim.Minute)
}

func TestTransferWithoutSACK(t *testing.T) {
	cfg := testCfg()
	cfg.UseSACK = false
	l := newTestLink(5, 20*sim.Millisecond, cfg)
	rng := rand.New(rand.NewSource(6))
	l.Drop = func(pkt *ip6.Packet) bool { return rng.Float64() < 0.08 }
	l.transfer(t, 20_000, 10*sim.Minute)
}

func TestTransferWithoutTimestamps(t *testing.T) {
	cfg := testCfg()
	cfg.UseTimestamps = false
	l := newTestLink(6, 20*sim.Millisecond, cfg)
	rng := rand.New(rand.NewSource(7))
	l.Drop = func(pkt *ip6.Packet) bool { return rng.Float64() < 0.08 }
	l.transfer(t, 20_000, 10*sim.Minute)
}

func TestTransferWithoutDelayedAcks(t *testing.T) {
	cfg := testCfg()
	cfg.UseDelayedAcks = false
	l := newTestLink(7, 20*sim.Millisecond, cfg)
	_, client := l.transfer(t, 20_000, 5*sim.Minute)
	// Without delack, roughly one ACK per data segment.
	if client.Stats.SegsSent == 0 {
		t.Fatal("no segments")
	}
}

// TestConnFitsSizeClass: a Conn holds both buffer headers by value so a
// connection is one object, not three. The runtime prepends an 8-byte
// header to a pointerful object over 512 bytes, so past 760 bytes the
// Conn takes an 896-byte slot — more than the 704 + 48 + 80 the three
// objects took — and every workload's alloc_mb goes up, not down.
func TestConnFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 760 {
		t.Fatalf("Conn is %d bytes; over 760 it leaves the 768-byte size class (pack the new field, see the send-state comment)", n)
	}
}

func TestFastRetransmitOnIsolatedLoss(t *testing.T) {
	// A 4-segment window does not always keep 3 segments in flight
	// behind a loss (the paper's Appendix B observation), so use 8
	// segments here to guarantee three duplicate ACKs.
	cfg := testCfg()
	cfg.SendBufSize = 8 * 408
	cfg.RecvBufSize = 8 * 408
	l := newTestLink(9, 20*sim.Millisecond, cfg)
	dropOnce := true
	l.Drop = func(pkt *ip6.Packet) bool {
		// Drop exactly one data segment mid-stream.
		if dropOnce && len(pkt.Payload) > 200 && l.delivered > 12 {
			dropOnce = false
			return true
		}
		return false
	}
	_, client := l.transfer(t, 40_000, 5*sim.Minute)
	if client.Stats.FastRetransmits == 0 {
		t.Fatalf("isolated loss recovered without fast retransmit: %+v", client.Stats)
	}
	if client.Stats.Timeouts > 0 {
		t.Fatalf("isolated loss caused an RTO (fastrtx=%d)", client.Stats.FastRetransmits)
	}
}

func TestRTORecovery(t *testing.T) {
	l := newTestLink(10, 20*sim.Millisecond, testCfg())
	blackout := false
	l.Drop = func(pkt *ip6.Packet) bool { return blackout }
	var client *Conn
	_ = client
	// Start a transfer, black out the link for 3 seconds mid-way.
	l.eng.Schedule(500*sim.Millisecond, func() { blackout = true })
	l.eng.Schedule(3500*sim.Millisecond, func() { blackout = false })
	_, c := l.transfer(t, 20_000, 5*sim.Minute)
	if c.Stats.Timeouts == 0 {
		t.Fatal("blackout did not trigger an RTO")
	}
}

func TestConnectionAbortsAfterMaxRetransmits(t *testing.T) {
	cfg := testCfg()
	cfg.MaxRetransmits = 4
	l := newTestLink(11, 10*sim.Millisecond, cfg)
	var closedErr error
	l.b.Listen(80, func(c *Conn) {})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnClosed = func(err error) { closedErr = err }
	client.OnEstablished = func() {
		client.Write(make([]byte, 500))
		// Total blackout from now on.
		l.Drop = func(pkt *ip6.Packet) bool { return true }
	}
	l.eng.RunUntil(sim.Time(10 * sim.Minute))
	if closedErr != ErrConnTimeout {
		t.Fatalf("close error = %v, want %v (state %v)", closedErr, ErrConnTimeout, client.State())
	}
}

func TestConnectionRefused(t *testing.T) {
	l := newTestLink(12, 10*sim.Millisecond, testCfg())
	var closedErr error
	client := l.a.Connect(ip6.AddrFromID(1), 81) // nothing listening
	client.OnClosed = func(err error) { closedErr = err }
	l.eng.RunUntil(sim.Time(sim.Second))
	if closedErr != ErrConnRefused {
		t.Fatalf("close error = %v, want refused", closedErr)
	}
	if l.b.Stats.RSTsSent == 0 {
		t.Fatal("no RST sent for unmatched SYN")
	}
}

func TestZeroWindowProbing(t *testing.T) {
	l := newTestLink(13, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	// Keep (more than a buffer's worth of) data flowing; the server app
	// reads nothing, so the advertised window must close and probes run.
	toSend := 4*408 + 2000
	sent := 0
	pump := func() {
		for sent < toSend {
			w, _ := client.Write(make([]byte, min(512, toSend-sent)))
			if w == 0 {
				return
			}
			sent += w
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	l.eng.RunUntil(sim.Time(30 * sim.Second))
	if server.ReadableBytes() != 4*408 {
		t.Fatalf("server buffered %d, want full buffer", server.ReadableBytes())
	}
	if client.Stats.ZeroWindowProbes == 0 {
		t.Fatalf("no zero-window probes: sent=%d srvReadable=%d sndWnd=%d una=%d nxt=%d max=%d qEnd=%d retx=%v (%s) srvRcvNxt=%d srvWin=%d stats=%+v",
			sent, server.ReadableBytes(), client.sndWnd, client.sndUna, client.sndNxt, client.sndMax, client.queuedEnd,
			client.retx.Armed(), retxNames[client.retxKind], server.rcvNxt, server.rcvQ.Window(), client.Stats)
	}
	// Now the app drains; the window reopens and the rest flows.
	drained := 0
	buf := make([]byte, 1024)
	server.OnReadable = func() {
		for {
			n := server.Read(buf)
			if n == 0 {
				break
			}
			drained += n
		}
	}
	for {
		n := server.Read(buf)
		if n == 0 {
			break
		}
		drained += n
	}
	l.eng.RunUntil(sim.Time(3 * sim.Minute))
	if drained != 4*408+2000 {
		t.Fatalf("drained %d, want %d", drained, 4*408+2000)
	}
}

func TestDelayedAckCoalescing(t *testing.T) {
	l := newTestLink(14, 10*sim.Millisecond, testCfg())
	_, client := l.transfer(t, 40_000, 5*sim.Minute)
	// With delayed ACKs, the receiver should send roughly one ACK per
	// two segments: ACK count well below segment count.
	segs := client.Stats.SegsSent
	// Count server ACKs as segments the client received.
	acks := client.Stats.SegsRecv
	if acks*3 > segs*2+20 {
		t.Fatalf("acks=%d for segs=%d — delayed ACKs not coalescing", acks, segs)
	}
}

func TestECNMarkingReducesWindowWithoutLoss(t *testing.T) {
	cfg := testCfg()
	cfg.UseECN = true
	l := newTestLink(15, 10*sim.Millisecond, cfg)
	mark := 0
	l.CE = func(pkt *ip6.Packet) bool {
		if pkt.ECN() == ip6.ECT0 && len(pkt.Payload) > 200 {
			mark++
			return mark%7 == 0 // mark every 7th data packet
		}
		return false
	}
	_, client := l.transfer(t, 30_000, 5*sim.Minute)
	if client.Stats.ECNCongestionResponses == 0 {
		t.Fatal("CE marks did not trigger ECN congestion responses")
	}
	if client.Stats.Retransmits > 0 {
		t.Fatalf("ECN path retransmitted %d segments on a lossless link", client.Stats.Retransmits)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	l := newTestLink(16, 15*sim.Millisecond, testCfg())
	const n = 15_000
	up := make([]byte, n)
	down := make([]byte, n)
	rand.New(rand.NewSource(17)).Read(up)
	rand.New(rand.NewSource(18)).Read(down)
	var gotUp, gotDown bytes.Buffer

	l.b.Listen(80, func(c *Conn) {
		sentDown := 0
		pump := func() {
			for sentDown < n {
				w, _ := c.Write(down[sentDown:])
				if w == 0 {
					return
				}
				sentDown += w
			}
		}
		c.OnReadable = func() {
			buf := make([]byte, 4096)
			for {
				r := c.Read(buf)
				if r == 0 {
					break
				}
				gotUp.Write(buf[:r])
			}
		}
		c.OnWritable = pump
		pump()
	})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	sentUp := 0
	pumpUp := func() {
		for sentUp < n {
			w, _ := client.Write(up[sentUp:])
			if w == 0 {
				return
			}
			sentUp += w
		}
	}
	client.OnEstablished = pumpUp
	client.OnWritable = pumpUp
	client.OnReadable = func() {
		buf := make([]byte, 4096)
		for {
			r := client.Read(buf)
			if r == 0 {
				break
			}
			gotDown.Write(buf[:r])
		}
	}
	l.eng.RunUntil(sim.Time(5 * sim.Minute))
	if !bytes.Equal(gotUp.Bytes(), up) {
		t.Fatalf("uplink corrupted: %d/%d", gotUp.Len(), n)
	}
	if !bytes.Equal(gotDown.Bytes(), down) {
		t.Fatalf("downlink corrupted: %d/%d", gotDown.Len(), n)
	}
}

func TestSimultaneousClose(t *testing.T) {
	l := newTestLink(17, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	client.Close()
	server.Close()
	l.eng.RunUntil(sim.Time(60 * sim.Second))
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("simultaneous close: %v %v", client.State(), server.State())
	}
}

func TestAbortSendsRST(t *testing.T) {
	l := newTestLink(18, 10*sim.Millisecond, testCfg())
	var server *Conn
	var serverErr error
	l.b.Listen(80, func(c *Conn) {
		server = c
		c.OnClosed = func(err error) { serverErr = err }
	})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	client.Abort()
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if server.State() != StateClosed || serverErr != ErrConnReset {
		t.Fatalf("peer after RST: %v err=%v", server.State(), serverErr)
	}
}

func TestChallengeAckOnBlindRST(t *testing.T) {
	l := newTestLink(19, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	// Inject a blind RST with an in-window but not-exact sequence number.
	rst := &Segment{
		SrcPort: client.localPort,
		DstPort: 80,
		SeqNum:  server.rcvNxt.Add(100),
		Flags:   FlagRST,
	}
	pkt := &ip6.Packet{
		Header: ip6.Header{
			NextHeader: ip6.ProtoTCP, HopLimit: 64,
			Src: ip6.AddrFromID(0), Dst: ip6.AddrFromID(1),
		},
		Payload: rst.AppendEncode(nil, ip6.AddrFromID(0), ip6.AddrFromID(1)),
	}
	l.b.Input(pkt)
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if server.State() == StateClosed {
		t.Fatal("blind RST killed the connection (RFC 5961 violated)")
	}
	if server.Stats.ChallengeAcks == 0 {
		t.Fatal("no challenge ACK recorded")
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	l := newTestLink(20, 50*sim.Millisecond, testCfg())
	var server *Conn
	var got bytes.Buffer
	l.b.Listen(80, func(c *Conn) {
		server = c
		c.OnReadable = func() {
			buf := make([]byte, 1024)
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				got.Write(buf[:n])
			}
		}
	})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnEstablished = func() {
		// Dribble out 1-byte writes; Nagle must coalesce them.
		var tick func(i int)
		tick = func(i int) {
			if i >= 100 {
				return
			}
			client.Write([]byte{byte(i)})
			l.eng.Schedule(time1ms, func() { tick(i + 1) })
		}
		tick(0)
	}
	l.eng.RunUntil(sim.Time(30 * sim.Second))
	if got.Len() != 100 {
		t.Fatalf("received %d bytes", got.Len())
	}
	// Far fewer data segments than writes.
	if server.Stats.SegsRecv > 60 {
		t.Fatalf("Nagle sent %d segments for 100 one-byte writes", server.Stats.SegsRecv)
	}
}

const time1ms = sim.Millisecond

func TestExpectingAckSignal(t *testing.T) {
	l := newTestLink(21, 10*sim.Millisecond, testCfg())
	transitions := []bool{}
	l.a.OnExpectingChange = func(on bool) { transitions = append(transitions, on) }
	l.transfer(t, 5000, sim.Minute)
	if len(transitions) < 2 || transitions[0] != true || transitions[len(transitions)-1] != false {
		t.Fatalf("expecting-ack transitions: %v", transitions)
	}
}

// TestExpectingCountsConnections: the duty-cycling hint is about the
// stack, not one connection. It turns on with the first connection that
// expects an answer, stays quiet while a second joins and while the
// first drains, and turns off only when the last one leaves: here the
// second, torn down with its data unacknowledged.
func TestExpectingCountsConnections(t *testing.T) {
	l := newTestLink(23, 10*sim.Millisecond, testCfg())
	var got []bool
	l.a.OnExpectingChange = func(on bool) { got = append(got, on) }
	l.b.Listen(80, func(c *Conn) {})
	first := l.a.Connect(ip6.AddrFromID(1), 80)
	if len(got) != 1 || !got[0] {
		t.Fatalf("after the first SYN: transitions %v, want [true]", got)
	}
	second := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	if first.State() != StateEstablished || second.State() != StateEstablished {
		t.Fatalf("handshakes: %v / %v", first.State(), second.State())
	}
	// The second connection's segments are lost from here on.
	l.Drop = func(pkt *ip6.Packet) bool {
		seg, err := DecodeSegment(pkt.Src, pkt.Dst, pkt.Payload)
		return err == nil && seg.SrcPort == second.localPort
	}
	first.Write(make([]byte, 500))
	second.Write(make([]byte, 500))
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if first.expecting || !second.expecting || second.BufferedBytes() == 0 {
		t.Fatalf("first should have drained and second not: expecting %v / %v, %d bytes unacknowledged",
			first.expecting, second.expecting, second.BufferedBytes())
	}
	if len(got) != 1 || !got[0] {
		t.Fatalf("with the second connection still expecting: transitions %v, want [true]", got)
	}
	second.Abort()
	if len(got) != 2 || got[1] {
		t.Fatalf("after the last expecting connection left: transitions %v, want [true false]", got)
	}
}

func TestHeaderPredictionCounters(t *testing.T) {
	l := newTestLink(22, 10*sim.Millisecond, testCfg())
	_, client := l.transfer(t, 40_000, 5*sim.Minute)
	if client.Stats.PredictedAcks == 0 {
		t.Fatal("no predicted ACKs on a clean bulk transfer")
	}
}

// TestConnSetupAllocs pins what opening a connection allocates: the Conn,
// its congestion-control state and RTT estimator, and its three timers
// (the retx slot, the delayed ACK and pacing) with their three callbacks.
// A timer builds nothing of its own around its callback, and neither
// build wraps one.
func TestConnSetupAllocs(t *testing.T) {
	cfg := testCfg()
	s := NewStack(sim.NewEngine(1), ip6.AddrFromID(1), cfg)
	var c *Conn
	perConn := testing.AllocsPerRun(100, func() { c = newConn(s, cfg) })
	_ = c
	if perConn != 9 {
		t.Fatalf("opening a connection costs %.2f allocations, want 9", perConn)
	}
}
