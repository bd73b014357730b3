package tcplp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// recordCwndScenario runs the recorded congestion-control scenario: a
// bulk transfer over a deterministic lossy fixed-delay link with a
// mid-stream blackout, exercising slow start, fast retransmit/recovery
// (partial and full ACKs), and RTO collapse. It returns one line per
// TraceCwnd event ("t_us,cwnd,ssthresh").
func recordCwndScenario(t *testing.T) []string {
	cfg := testCfg()
	cfg.SendBufSize = 8 * 408
	cfg.RecvBufSize = 8 * 408
	l := newTestLink(42, 20*sim.Millisecond, cfg)
	drops := newDetDrop(43, 0.05)
	blackout := false
	l.Drop = func(pkt *ip6.Packet) bool {
		if blackout {
			return true
		}
		return drops(pkt)
	}
	l.eng.Schedule(4*sim.Second, func() { blackout = true })
	l.eng.Schedule(7*sim.Second, func() { blackout = false })

	var lines []string
	var received int
	l.b.Listen(80, func(c *Conn) {
		c.OnReadable = func() {
			buf := make([]byte, 2048)
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				received += n
			}
		}
	})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.TraceCwnd = func(now sim.Time, cwnd, ssthresh int) {
		lines = append(lines, fmt.Sprintf("%d,%d,%d", int64(now), cwnd, ssthresh))
	}
	const total = 120_000
	sent := 0
	pump := func() {
		for sent < total {
			w, err := client.Write(make([]byte, min(1024, total-sent)))
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			if w == 0 {
				return
			}
			sent += w
		}
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	l.eng.RunUntil(sim.Time(10 * sim.Minute))
	if received != total {
		t.Fatalf("scenario transfer incomplete: %d/%d", received, total)
	}
	return lines
}

// newDetDrop returns a deterministic per-packet drop function based on a
// cheap xorshift PRNG (kept independent of math/rand so Go version
// changes cannot shift the recorded scenario).
func newDetDrop(seed uint64, p float64) func(pkt *ip6.Packet) bool {
	x := seed
	return func(*ip6.Packet) bool {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11)/float64(1<<53) < p
	}
}

// TestNewRenoCwndTraceGolden pins the NewReno cwnd/ssthresh trace on the
// recorded scenario to the values produced by the pre-refactor inline
// implementation. Any change to the congestion-control plumbing that
// alters NewReno behaviour fails here. Run with -update to re-record.
func TestNewRenoCwndTraceGolden(t *testing.T) {
	lines := recordCwndScenario(t)
	if len(lines) < 20 {
		t.Fatalf("scenario produced only %d cwnd events", len(lines))
	}
	golden := filepath.Join("testdata", "newreno_cwnd_golden.csv")
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("cwnd trace diverges from pre-refactor NewReno at event %d: got %q want %q (of %d/%d events)",
					i, gl[i], wl[i], len(gl)-1, len(wl)-1)
			}
		}
		t.Fatalf("cwnd trace length changed: got %d events, want %d", len(gl)-1, len(wl)-1)
	}
}

// Regression: a passively opened, receive-only connection must survive
// arbitrarily long idle periods. The SYN/ACK's retransmission timer once
// leaked past establishment and silently backed off until the server
// aborted the connection after ~8 idle minutes and RST the peer.
func TestIdleServerConnectionSurvives(t *testing.T) {
	l := newTestLink(30, 10*sim.Millisecond, testCfg())
	var server *Conn
	var serverErr, clientErr error
	l.b.Listen(80, func(c *Conn) {
		server = c
		c.OnClosed = func(err error) { serverErr = err }
	})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnClosed = func(err error) { clientErr = err }
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if server == nil || server.State() != StateEstablished {
		t.Fatalf("handshake failed: %v", stateOf(server))
	}
	// 30 idle minutes: nothing may fire, nothing may close.
	l.eng.RunUntil(sim.Time(30 * sim.Minute))
	if server.State() != StateEstablished || client.State() != StateEstablished {
		t.Fatalf("idle connection died: server=%v(%v) client=%v(%v)",
			server.State(), serverErr, client.State(), clientErr)
	}
	if server.Stats.Timeouts != 0 {
		t.Fatalf("idle server fired %d RTOs", server.Stats.Timeouts)
	}
	// And it still works afterwards.
	received := 0
	server.OnReadable = func() {
		buf := make([]byte, 256)
		for {
			n := server.Read(buf)
			if n == 0 {
				break
			}
			received += n
		}
	}
	client.Write(make([]byte, 100))
	l.eng.RunFor(5 * sim.Second)
	if received != 100 {
		t.Fatalf("post-idle transfer delivered %d", received)
	}
}

// Regression (Karn violation on handshake retransmit): after a SYN RTO,
// the retransmission must restart the handshake RTT sample. The old code
// kept timing the ORIGINAL SYN, so in non-timestamp configs the eventual
// SYN/ACK seeded srtt with the whole backoff interval (~1 s) instead of
// the final round trip, inflating every early RTO and causing exactly the
// spurious retransmissions LLN energy budgets cannot afford.
func TestHandshakeRTTAfterSynRetransmit(t *testing.T) {
	cfg := testCfg()
	cfg.UseTimestamps = false
	l := newTestLink(32, 50*sim.Millisecond, cfg)
	l.b.Listen(80, func(c *Conn) {})
	dropped := false
	l.Drop = func(pkt *ip6.Packet) bool {
		if !dropped {
			dropped = true // lose exactly the first SYN
			return true
		}
		return false
	}
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	var samples []sim.Duration
	client.TraceRTT = func(s sim.Duration) { samples = append(samples, s) }
	l.eng.RunUntil(sim.Time(10 * sim.Second))
	if client.State() != StateEstablished {
		t.Fatalf("handshake failed: %v", client.State())
	}
	if client.Stats.Timeouts == 0 {
		t.Fatal("SYN was not retransmitted — scenario broken")
	}
	if len(samples) == 0 {
		t.Fatal("no RTT sample from the handshake")
	}
	// Physical RTT is 100 ms; the initial RTO is 1 s. A first sample that
	// includes the backoff interval lands at ≈1.1 s.
	if samples[0] > 500*sim.Millisecond {
		t.Fatalf("first RTT sample = %v includes the SYN backoff interval (link RTT is 100 ms)",
			samples[0])
	}
	if client.SRTT() > 500*sim.Millisecond {
		t.Fatalf("srtt = %v seeded from the backoff interval", client.SRTT())
	}
}

// Regression: timestamp-echo validity is the RFC 7323 rule (TSEcr is
// meaningful iff the ACK bit is set), not "TSEcr != 0". A zero echo is
// legitimate when the timestamp clock reads 0 at wrap and must still
// produce an RTT sample; conversely a segment without ACK must not.
func TestTimestampEchoZeroIsValid(t *testing.T) {
	l := newTestLink(33, 10*sim.Millisecond, testCfg())
	l.b.Listen(80, func(c *Conn) {})
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	if client.State() != StateEstablished || !client.peerTS {
		t.Fatalf("setup: state=%v peerTS=%v", client.State(), client.peerTS)
	}
	samples := 0
	client.TraceRTT = func(sim.Duration) { samples++ }
	// A peer whose timestamp clock read 0 when it echoed ours.
	echoZero := &Segment{
		Flags:  FlagACK,
		AckNum: client.sndNxt,
		HasTS:  true,
		TSVal:  7,
		TSEcr:  0,
	}
	client.sampleRTTFromSeg(echoZero)
	if samples != 1 {
		t.Fatalf("legitimate zero echo dropped: %d samples", samples)
	}
	// Without the ACK bit the echo field is undefined and must not feed
	// the estimator, whatever its value.
	noAck := &Segment{HasTS: true, TSVal: 9, TSEcr: 1234}
	client.sampleRTTFromSeg(noAck)
	if samples != 1 {
		t.Fatalf("TSEcr without ACK produced a sample: %d", samples)
	}
}

// Regression (Karn violation in the persist path): the first zero-window
// probe starts an RTT sample; re-probes must invalidate it, or the ACK
// that finally arrives when the window reopens gets timed against the
// FIRST probe's clock and feeds the estimator the whole persist episode
// — seconds to minutes of "RTT" that clamp the RTO to its maximum.
func TestPersistEpisodeDoesNotPolluteRTT(t *testing.T) {
	cfg := testCfg()
	cfg.UseTimestamps = false
	l := newTestLink(35, 10*sim.Millisecond, cfg)
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	var samples []sim.Duration
	client.TraceRTT = func(s sim.Duration) { samples = append(samples, s) }
	total := 4*408 + 1 // one byte can never fit the peer's buffer
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
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	// A 20-second zero-window episode with probes cycling throughout.
	l.eng.RunUntil(sim.Time(20 * sim.Second))
	if client.Stats.ZeroWindowProbes < 2 {
		t.Fatalf("scenario: %d probes", client.Stats.ZeroWindowProbes)
	}
	buf := make([]byte, 4096)
	server.OnReadable = func() {
		for server.Read(buf) > 0 {
		}
	}
	for server.Read(buf) > 0 {
	}
	l.eng.RunUntil(sim.Time(40 * sim.Second))
	if server.Stats.BytesRecv != uint64(total) {
		t.Fatalf("delivered %d/%d after reopen", server.Stats.BytesRecv, total)
	}
	for _, s := range samples {
		if s > sim.Second {
			t.Fatalf("RTT sample %v spans the persist episode (link RTT is 20 ms)", s)
		}
	}
	if client.SRTT() > sim.Second {
		t.Fatalf("srtt = %v polluted by the persist episode", client.SRTT())
	}
}

// Regression: retransmitted FIN-only segments must count into
// Stats.Retransmits — the close-phase retransmissions are exactly what
// the paper's energy accounting (Fig. 9b) tallies.
func TestFinOnlyRetransmitCounted(t *testing.T) {
	l := newTestLink(34, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	if client.State() != StateEstablished {
		t.Fatalf("setup: %v", client.State())
	}
	// Black the link out and close: the FIN (carrying no data) is lost
	// and must be retransmitted by the RTO path.
	blackout := true
	l.Drop = func(pkt *ip6.Packet) bool { return blackout }
	client.Close()
	l.eng.RunFor(10 * sim.Second)
	if client.Stats.Timeouts == 0 {
		t.Fatal("lost FIN never timed out — scenario broken")
	}
	if client.Stats.Retransmits == 0 {
		t.Fatalf("FIN-only retransmissions uncounted: %+v", client.Stats)
	}
	blackout = false
	l.eng.RunFor(30 * sim.Second)
	if !client.finAcked() {
		t.Fatalf("FIN never acknowledged after blackout: %v", client.State())
	}
	_ = server
}

// Regression: delayed ACKs must not halve the peer's RTT samples. With
// RFC 7323 Last.ACK.sent echo semantics the timestamp a delayed ACK
// echoes belongs to the FIRST of the two segments it covers, so the
// sender's RTT sample includes the coalescing wait.
func TestTimestampEchoCoversDelayedAck(t *testing.T) {
	l := newTestLink(31, 50*sim.Millisecond, testCfg())
	_, client := l.transfer(t, 30_000, 5*sim.Minute)
	// One-way delay 50 ms → physical RTT 100 ms. In steady state with a
	// 4-segment window the pipe adds queueing; SRTT must be comfortably
	// above the bare 100 ms (the buggy echo reported less than 100 ms
	// because it echoed the newest segment's timestamp).
	if client.SRTT() < 100*sim.Millisecond {
		t.Fatalf("srtt = %v, must include pipeline + delack wait", client.SRTT())
	}
}

// TestZeroWindowWithFinQueuedNoSpuriousRTO pins a bug the invariants
// build found when rexmt and persist were two timers never to be armed
// together (today arming one over the other panics there, checkArm):
// the retransmission timer used to be armed whenever a FIN was queued,
// sent or not. A sender stuck against a closed window with data and the
// FIN still queued, whose probe byte the receiver accepted (the reader
// took one byte, too little to announce), then ran both timers with
// nothing in flight: four RTOs fired into the closed window within
// three seconds, collapsing cwnd to one segment and leaving the backoff
// shift at 4 for the next genuine timeout, until the next probe happened
// to stop the timer. Nothing is lost on this link, so no timeout may
// ever fire, however long the reader stalls.
func TestZeroWindowWithFinQueuedNoSpuriousRTO(t *testing.T) {
	l := newTestLink(61, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	var closeErr error
	client.OnClosed = func(err error) { closeErr = err }
	const total = 4*408 + 100 // a full receive window, then 100 bytes and the FIN behind it
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
		client.Close()
	}
	client.OnEstablished = pump
	client.OnWritable = pump
	l.eng.RunUntil(sim.Time(2 * sim.Second))
	if server == nil || client.sndWnd != 0 || !client.finQueued {
		t.Fatalf("scenario setup: server=%v sndWnd=%d finQueued=%v", stateOf(server), client.sndWnd, client.finQueued)
	}
	// The reader takes one byte: room for the next probe byte, not enough
	// for a window update. Then it stalls for longer than twelve backed-
	// off RTOs would take.
	if n := server.Read(make([]byte, 1)); n != 1 {
		t.Fatalf("read %d bytes", n)
	}
	for at := sim.Time(3 * sim.Second); at < sim.Time(25*sim.Minute); at += sim.Time(sim.Second) {
		l.eng.RunUntil(at)
		if !client.armed(kindPersist) || client.armed(kindRexmt) {
			t.Fatalf("t=%v: want persist armed and rexmt not, retx slot holds the %s (armed %v; una=%d nxt=%d max=%d wnd=%d)",
				at, retxNames[client.retxKind], client.retx.Armed(), client.sndUna, client.sndNxt, client.sndMax, client.sndWnd)
		}
	}
	if client.Stats.Timeouts != 0 || client.State() == StateClosed {
		t.Fatalf("lossless link, stalled reader: %d timeouts, state %v, close error %v",
			client.Stats.Timeouts, client.State(), closeErr)
	}
	// When the reader comes back the stream completes.
	drained := 1
	buf := make([]byte, 2048)
	drain := func() {
		for n := server.Read(buf); n > 0; n = server.Read(buf) {
			drained += n
		}
	}
	server.OnReadable = drain
	drain()
	l.eng.RunUntil(sim.Time(30 * sim.Minute))
	if drained != total || !server.EOF() || client.Stats.Timeouts != 0 {
		t.Fatalf("after the reader resumed: drained %d of %d, EOF %v, %d timeouts", drained, total, server.EOF(), client.Stats.Timeouts)
	}
}

// TestSackBlockBeyondSndMaxIgnored: a SACK block ending beyond snd.max
// reports data that was never sent. Stored, it inflates SackedBytes until
// the pipe estimate goes negative and hides the hole under it from
// NextHole, so it must never enter the scoreboard (RFC 2018 §5: discarded
// whole, not trimmed). The first data segment is lost; while the rest of
// the window is in flight the sender is handed one duplicate ACK whose
// block straddles snd.max. The scoreboard must stay empty, and the loss
// must still be repaired by fast retransmit, with no timeout.
func TestSackBlockBeyondSndMaxIgnored(t *testing.T) {
	cfg := testCfg()
	cfg.SendBufSize, cfg.RecvBufSize = 8*408, 8*408
	l := newTestLink(23, 20*sim.Millisecond, cfg)
	lost := false
	l.Drop = func(pkt *ip6.Packet) bool {
		if !lost && len(pkt.Payload) > 200 {
			lost = true
			return true
		}
		return false
	}
	var received []byte
	l.b.Listen(80, func(c *Conn) {
		buf := make([]byte, 2048)
		c.OnReadable = func() {
			for n := c.Read(buf); n > 0; n = c.Read(buf) {
				received = append(received, buf[:n]...)
			}
		}
	})
	payload := make([]byte, 8*408)
	for i := range payload {
		payload[i] = byte(i)
	}
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnEstablished = func() { client.Write(payload) }
	for client.State() != StateEstablished {
		if !l.eng.Step() {
			t.Fatal("never established")
		}
	}
	if !client.peerSACK || client.sndMax.Diff(client.sndUna) < 2*408 {
		t.Fatalf("scenario setup: peerSACK %v, %d bytes in flight", client.peerSACK, client.sndMax.Diff(client.sndUna))
	}
	hostile := &Segment{
		SrcPort: 80, DstPort: client.localPort,
		SeqNum: client.rcvNxt, AckNum: client.sndUna,
		Flags: FlagACK, Window: uint16(client.sndWnd),
		SACKBlocks: []SACKBlock{{Start: client.sndUna.Add(408), End: client.sndMax.Add(4000)}},
	}
	l.a.Input(&ip6.Packet{
		Header: ip6.Header{
			NextHeader: ip6.ProtoTCP, HopLimit: 64,
			Src: ip6.AddrFromID(1), Dst: ip6.AddrFromID(0),
		},
		Payload: hostile.AppendEncode(nil, ip6.AddrFromID(1), ip6.AddrFromID(0)),
	})
	if !client.sb.Empty() {
		t.Fatalf("scoreboard holds %v after a block beyond snd.max %d", client.sb.ranges, client.sndMax)
	}
	l.eng.RunUntil(sim.Time(10 * sim.Second))
	if string(received) != string(payload) {
		t.Fatalf("received %d of %d bytes", len(received), len(payload))
	}
	if !lost || client.Stats.FastRetransmits == 0 || client.Stats.Timeouts != 0 {
		t.Fatalf("lost %v; the loss was not repaired by fast retransmit: %+v", lost, client.Stats)
	}
}
