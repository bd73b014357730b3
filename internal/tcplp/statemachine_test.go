package tcplp

import (
	"bytes"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
)

// TestHalfCloseDataFlow: after the client sends FIN, the server may keep
// sending data (half-close); the client must keep ACKing and receiving.
func TestHalfCloseDataFlow(t *testing.T) {
	l := newTestLink(40, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	var got bytes.Buffer
	client.OnReadable = func() {
		buf := make([]byte, 1024)
		for {
			n := client.Read(buf)
			if n == 0 {
				break
			}
			got.Write(buf[:n])
		}
	}
	l.eng.RunUntil(sim.Time(sim.Second))
	client.Close() // client→server FIN; client enters FIN_WAIT
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if client.State() != StateFinWait2 {
		t.Fatalf("client state = %v, want FIN_WAIT_2", client.State())
	}
	if server.State() != StateCloseWait {
		t.Fatalf("server state = %v, want CLOSE_WAIT", server.State())
	}
	// Server streams data into the half-closed connection.
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	sent := 0
	pump := func() {
		for sent < len(payload) {
			n, err := server.Write(payload[sent:])
			if err != nil {
				t.Fatalf("half-close write: %v", err)
			}
			if n == 0 {
				return
			}
			sent += n
		}
		server.Close()
	}
	server.OnWritable = pump
	pump()
	l.eng.RunUntil(sim.Time(60 * sim.Second))
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("half-close delivery: %d/%d bytes", got.Len(), len(payload))
	}
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("final states: %v / %v", client.State(), server.State())
	}
}

// TestMSSNegotiation: the sender must clamp its segments to the peer's
// advertised MSS.
func TestMSSNegotiation(t *testing.T) {
	cfgSmall := testCfg()
	cfgSmall.MSS = 100
	eng := sim.NewEngine(41)
	a := NewStack(eng, ip6.AddrFromID(0), testCfg()) // MSS 408
	b := NewStack(eng, ip6.AddrFromID(1), cfgSmall)  // MSS 100
	maxSeen := 0
	fwd := func(to *Stack) func(*ip6.Packet) {
		return func(pkt *ip6.Packet) {
			if seg, err := DecodeSegment(pkt.Src, pkt.Dst, pkt.Payload); err == nil {
				if len(seg.Payload) > maxSeen {
					maxSeen = len(seg.Payload)
				}
			}
			eng.Schedule(10*sim.Millisecond, func() { to.Input(pkt) })
		}
	}
	a.Output = fwd(b)
	b.Output = fwd(a)
	b.Listen(80, func(c *Conn) {
		c.OnReadable = func() {
			buf := make([]byte, 4096)
			for c.Read(buf) > 0 {
			}
		}
	})
	client := a.Connect(ip6.AddrFromID(1), 80)
	client.OnEstablished = func() { client.Write(make([]byte, 1500)) }
	eng.RunUntil(sim.Time(10 * sim.Second))
	if maxSeen > 100 {
		t.Fatalf("segment of %d bytes exceeds peer MSS 100", maxSeen)
	}
	if client.effMSS() != 100 {
		t.Fatalf("effective MSS = %d", client.effMSS())
	}
}

// TestWindowUpdateAfterRead: a receiver whose app drains a previously
// full buffer must proactively announce the reopened window.
func TestWindowUpdateAfterRead(t *testing.T) {
	l := newTestLink(42, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	toSend := 4 * 408 * 3
	sent := 0
	pump := func() {
		for sent < toSend {
			n, _ := client.Write(make([]byte, 512))
			if n == 0 {
				return
			}
			sent += n
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	// Server app reads nothing until t=5s: the window closes.
	l.eng.RunUntil(sim.Time(5 * sim.Second))
	if client.sndWnd != 0 {
		t.Fatalf("window = %d, want 0 with an idle reader", client.sndWnd)
	}
	// Drain: the window-update ACK must restart the flow without waiting
	// for a probe.
	buf := make([]byte, 1<<16)
	server.Read(buf)
	received := server.Stats.BytesRecv
	l.eng.RunUntil(sim.Time(8 * sim.Second))
	if server.Stats.BytesRecv <= received {
		t.Fatal("flow did not resume after window reopened")
	}
}

// TestListenerConfigFor: a listener's Config is its accepted connections'.
func TestListenerConfigFor(t *testing.T) {
	l := newTestLink(43, 10*sim.Millisecond, testCfg())
	var server *Conn
	lst := l.b.Listen(80, func(c *Conn) { server = c })
	custom := testCfg()
	custom.RecvBufSize = 9 * 408
	lst.Config = &custom
	l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	if server == nil || server.rcvQ.Capacity() != 9*408 {
		t.Fatalf("listener config override not applied")
	}
}

// TestListenerClose: a closed listener refuses new connections with RST.
func TestListenerClose(t *testing.T) {
	l := newTestLink(44, 10*sim.Millisecond, testCfg())
	lst := l.b.Listen(80, func(c *Conn) {})
	lst.Close()
	var closedErr error
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnClosed = func(err error) { closedErr = err }
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if closedErr != ErrConnRefused {
		t.Fatalf("connect to closed listener: %v", closedErr)
	}
}

// TestWriteAfterCloseRejected: the API contract around Close.
func TestWriteAfterCloseRejected(t *testing.T) {
	l := newTestLink(45, 10*sim.Millisecond, testCfg())
	l.b.Listen(80, func(c *Conn) {})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	client.Close()
	// Depending on whether the FIN already left (FIN_WAIT_1) or is still
	// queued, the error differs; both reject the write.
	if _, err := client.Write([]byte("late")); err != ErrWriteAfterFin && err != ErrConnClosed {
		t.Fatalf("write after close: %v", err)
	}
}

// persistScenario drives a sender into the zero-window persist path with
// a FIN queued behind undeliverable data: the app fills the peer's
// receive buffer exactly, writes one more byte (which can never fit),
// and closes. The receiver app reads nothing until the test drains it.
func persistScenario(t *testing.T, seed int64) (*testLink, *Conn, *Conn) {
	t.Helper()
	l := newTestLink(seed, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	total := 4*408 + 1
	sent := 0
	pump := func() {
		for sent < total {
			n, err := client.Write(make([]byte, min(512, total-sent)))
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			if n == 0 {
				return
			}
			sent += n
		}
		if !client.finQueued {
			client.Close()
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if server == nil || client.sndWnd != 0 {
		t.Fatalf("scenario setup: server=%v sndWnd=%d", stateOf(server), client.sndWnd)
	}
	return l, client, server
}

// TestPersistFinProbe: with the peer's window closed and the stream
// ending in <probe byte, FIN>, the persist timer must drive progress —
// first the one-byte data probe, then the FIN-only probe once snd.nxt
// reaches the end of the stream — and those probe retransmissions must
// be visible in the stats.
func TestPersistFinProbe(t *testing.T) {
	l, client, _ := persistScenario(t, 47)
	finSends := 0
	inner := l.a.Output
	l.a.Output = func(pkt *ip6.Packet) {
		if seg, err := DecodeSegment(pkt.Src, pkt.Dst, pkt.Payload); err == nil &&
			seg.Flags.Has(FlagFIN) {
			finSends++
		}
		inner(pkt)
	}
	l.eng.RunUntil(sim.Time(30 * sim.Second))
	if client.Stats.ZeroWindowProbes < 2 {
		t.Fatalf("zero-window probes = %d, want data probe + FIN probe(s): %+v",
			client.Stats.ZeroWindowProbes, client.Stats)
	}
	if finSends == 0 {
		t.Fatal("FIN never probed through the closed window")
	}
	if client.State() != StateFinWait1 {
		t.Fatalf("prober state = %v, want FIN_WAIT_1 while unacknowledged", client.State())
	}
	if client.Stats.Retransmits == 0 {
		t.Fatal("persist-probe retransmissions uncounted")
	}
}

// TestPersistRexmtExclusivity: while probing a zero window with nothing
// deliverable in flight, the persist timer replaces the retransmission
// timer (BSD rexmt/persist exclusivity) — retransmitting into a closed
// window could only back off to a spurious abort.
func TestPersistRexmtExclusivity(t *testing.T) {
	l, client, _ := persistScenario(t, 48)
	// Sample between the first probe (≈0.5 s after the window closed) and
	// the dup-ACK threshold that re-enters ordinary recovery.
	var persistArmed, rexmtArmed, probed bool
	l.eng.Schedule(1200*sim.Millisecond, func() {
		persistArmed = client.armed(kindPersist)
		rexmtArmed = client.armed(kindRexmt)
		probed = client.Stats.ZeroWindowProbes > 0
	})
	l.eng.RunUntil(sim.Time(4 * sim.Second))
	if !probed {
		t.Fatalf("no probe before the sample point: %+v", client.Stats)
	}
	if !persistArmed || rexmtArmed {
		t.Fatalf("persist/rexmt exclusivity violated mid-probe: persist=%v rexmt=%v",
			persistArmed, rexmtArmed)
	}
}

// TestRetxSlotKinds walks one connection through every kind its retx
// slot holds: the retransmission timer of a SYN whose first copy is lost,
// the persist timer against a zero window with the FIN queued, and 2MSL
// in TIME_WAIT. Mid-persist, the reader takes one byte, so the next probe
// is accepted and its ACK advances snd.una with the window still closed:
// processAck stops the retransmission timer, and that must leave the
// probe timer armed at the deadline it had.
func TestRetxSlotKinds(t *testing.T) {
	l := newTestLink(50, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	synLost := false
	l.Drop = func(*ip6.Packet) bool { // the first packet: the client's SYN
		drop := !synLost
		synLost = true
		return drop
	}
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	if !client.armed(kindRexmt) {
		t.Fatalf("SYN sent, retx slot holds the %s (armed %v)", retxNames[client.retxKind], client.retx.Armed())
	}

	// Stage 1: the SYN's RTO fires and rearms the rexmt until the
	// retransmitted SYN completes the handshake.
	for at := sim.Time(100 * sim.Millisecond); client.State() == StateSynSent; at += sim.Time(100 * sim.Millisecond) {
		if !client.armed(kindRexmt) {
			t.Fatalf("t=%v in SYN_SENT: retx slot holds the %s (armed %v)", at, retxNames[client.retxKind], client.retx.Armed())
		}
		l.eng.RunUntil(at)
	}
	if client.State() != StateEstablished || client.Stats.Timeouts != 1 {
		t.Fatalf("after the SYN retransmission: %v, %d timeouts", client.State(), client.Stats.Timeouts)
	}

	// Stage 2: a full receive window, then 100 bytes and the FIN behind it
	// against a reader that reads nothing.
	const total = 4*408 + 100
	sent := 0
	pump := func() {
		for sent < total {
			n, _ := client.Write(make([]byte, min(512, total-sent)))
			if n == 0 {
				return
			}
			sent += n
		}
		client.Close()
	}
	client.OnWritable = pump
	pump()
	midPersistAcks := 0
	inner := l.b.Output
	l.b.Output = func(pkt *ip6.Packet) {
		seg, err := DecodeSegment(pkt.Src, pkt.Dst, pkt.Payload)
		var una Seq
		var due sim.Time
		var persist bool
		// Both checks run at the segment's arrival, one just before its
		// input and one just after.
		l.eng.Schedule(l.delay, func() {
			una, persist = client.sndUna, client.armed(kindPersist)
			due, _ = client.retx.Deadline()
		})
		inner(pkt)
		l.eng.Schedule(l.delay, func() {
			if !persist || err != nil || seg.Window != 0 || !client.sndUna.GT(una) {
				return
			}
			midPersistAcks++
			if when, _ := client.retx.Deadline(); !client.armed(kindPersist) || when != due {
				t.Errorf("ACK mid-persist: retx slot holds the %s (armed %v) due %v, want the persist timer due %v",
					retxNames[client.retxKind], client.retx.Armed(), when, due)
			}
		})
	}
	l.eng.RunUntil(sim.Time(3 * sim.Second))
	if client.sndWnd != 0 || !client.finQueued || !client.armed(kindPersist) {
		t.Fatalf("zero window with the FIN queued: sndWnd=%d finQueued=%v, retx slot holds the %s (armed %v)",
			client.sndWnd, client.finQueued, retxNames[client.retxKind], client.retx.Armed())
	}
	if n := server.Read(make([]byte, 1)); n != 1 {
		t.Fatalf("read %d bytes", n)
	}
	l.eng.RunUntil(sim.Time(10 * sim.Second))
	if midPersistAcks == 0 {
		t.Fatalf("no ACK advanced snd.una mid-persist (%d probes)", client.Stats.ZeroWindowProbes)
	}

	// Stage 3: the reader drains and closes; the client's FIN is ACKed,
	// the server's FIN takes the client into TIME_WAIT, whose 2MSL
	// replaces whatever the slot held.
	buf := make([]byte, 2048)
	server.OnReadable = func() {
		for server.Read(buf) > 0 {
		}
		if server.EOF() {
			server.Close()
		}
	}
	server.OnReadable()
	l.eng.RunUntil(sim.Time(20 * sim.Second))
	if client.State() != StateTimeWait || !client.armed(kind2MSL) {
		t.Fatalf("client %v, retx slot holds the %s (armed %v), want TIME_WAIT under 2MSL",
			client.State(), retxNames[client.retxKind], client.retx.Armed())
	}
	l.eng.RunUntil(sim.Time(40 * sim.Second))
	if client.State() != StateClosed || client.retx.Armed() {
		t.Fatalf("after 2MSL: client %v, retx armed %v", client.State(), client.retx.Armed())
	}
}

// TestPersistWindowReopenResumesOutput: when the receiver finally
// drains, the window-update ACK must stop the persist cycle and let
// normal output deliver the trailing byte and the FIN, completing the
// close handshake.
func TestPersistWindowReopenResumesOutput(t *testing.T) {
	l, client, server := persistScenario(t, 49)
	l.eng.RunUntil(sim.Time(10 * sim.Second))
	drained := 0
	buf := make([]byte, 2048)
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
	l.eng.RunUntil(sim.Time(60 * sim.Second))
	if want := 4*408 + 1; drained != want {
		t.Fatalf("drained %d bytes, want %d", drained, want)
	}
	if !server.EOF() {
		t.Fatal("server never saw the FIN after the window reopened")
	}
	if client.State() != StateFinWait2 {
		t.Fatalf("client state = %v, want FIN_WAIT_2 (FIN acked)", client.State())
	}
	if client.armed(kindPersist) {
		t.Fatal("persist timer still armed after the window reopened")
	}
	// And the close completes end to end.
	server.Close()
	l.eng.RunUntil(sim.Time(2 * sim.Minute))
	if client.State() != StateClosed || server.State() != StateClosed {
		t.Fatalf("final states: %v / %v", client.State(), server.State())
	}
}

// TestSegmentCoalescingUnderReordering: heavy jitter with SACK — every
// byte still arrives exactly once, in order.
func TestStreamIntegrityUnderExtremeJitter(t *testing.T) {
	cfg := testCfg()
	cfg.RecvBufSize = 8 * 408
	cfg.SendBufSize = 8 * 408
	l := newTestLink(46, 5*sim.Millisecond, cfg)
	jit := int64(0)
	l.Jitter = func() sim.Duration {
		jit = (jit*1103515245 + 12345) % 200
		return sim.Duration(jit) * sim.Millisecond
	}
	l.transfer(t, 40_000, 10*sim.Minute)
}
