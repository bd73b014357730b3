package tcplp

import (
	"fmt"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
)

// effMSS is the MSS we may send: the peer's advertised MSS clamped by our
// own configuration.
func (c *Conn) effMSS() int {
	m := c.cfg.MSS
	if c.peerMSS > 0 && c.peerMSS < m {
		m = c.peerMSS
	}
	return m
}

// pacingRate returns the variant's current pacing rate in bytes per
// second, or 0 when the algorithm is ACK-clocked (does not implement
// cc.Pacer) or there is no rate yet.
func (c *Conn) pacingRate() float64 {
	if c.pacer == nil {
		return 0
	}
	return c.pacer.PacingRate(c.effMSS(), c.rtt.SRTT())
}

// paceCharge advances the pacing release clock after a segment of n
// payload bytes left: the next release waits n/rate behind this one.
// Crediting from max(paceNext, now) — never from the past — means idle
// periods accumulate no send credit, so a window opening after a pause
// cannot burst (the property the inter-send-gap tests pin down).
func (c *Conn) paceCharge(n int) {
	if n <= 0 {
		return
	}
	rate := c.pacingRate()
	if rate <= 0 {
		return
	}
	base := c.stack.eng.Now()
	if c.paceNext > base {
		base = c.paceNext
	}
	c.paceNext = base.Add(sim.Duration(float64(n) / rate * float64(sim.Second)))
}

// sendWindow is the current usable window: min(cwnd, peer window).
func (c *Conn) sendWindow() int {
	w := c.sndWnd
	if cwnd := c.cong.Cwnd(); cwnd < w {
		w = cwnd
	}
	return w
}

// connect begins an active open (stack.Connect fills addressing first).
func (c *Conn) connect() {
	c.iss = Seq(c.stack.eng.Rand().Uint32())
	c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
	c.recover, c.ecnRecover = c.iss, c.iss
	c.queuedEnd = c.iss.Add(1) // stream starts after SYN
	c.cong.Init(c.now())
	c.setState(StateSynSent)
	c.sendSYN(false)
	c.armRexmt()
}

// acceptSyn initializes a passive connection from a received SYN.
func (c *Conn) acceptSyn(seg *Segment) {
	c.irs = seg.SeqNum
	c.rcvNxt = seg.SeqNum.Add(1)
	c.lastAckSeq = c.rcvNxt
	c.iss = Seq(c.stack.eng.Rand().Uint32())
	c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
	c.recover, c.ecnRecover = c.iss, c.iss
	c.queuedEnd = c.iss.Add(1)
	c.cong.Init(c.now())
	c.applySynOptions(seg)
	if c.cfg.UseECN && seg.Flags.Has(FlagECE|FlagCWR) {
		c.ecnOn = true
	}
	c.setState(StateSynReceived)
	c.sendSYN(true)
	c.armRexmt()
}

// applySynOptions records the peer's negotiated capabilities.
func (c *Conn) applySynOptions(seg *Segment) {
	if seg.MSS != 0 {
		c.peerMSS = int(seg.MSS)
	}
	c.peerSACK = c.cfg.UseSACK && seg.SACKPermitted
	c.peerTS = c.cfg.UseTimestamps && seg.HasTS
	if c.peerTS {
		c.tsRecent = seg.TSVal
		c.tsEcho = true
	}
}

// sendSYN emits a SYN (active) or SYN/ACK (passive) with our options.
func (c *Conn) sendSYN(withAck bool) {
	seg := &Segment{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		SeqNum:  c.iss,
		Flags:   FlagSYN,
		Window:  uint16(clampInt(c.rcvQ.Window(), 0, 0xffff)),
		MSS:     uint16(c.cfg.MSS),
	}
	if c.cfg.UseSACK {
		seg.SACKPermitted = true
	}
	if c.cfg.UseTimestamps {
		seg.HasTS = true
		seg.TSVal = c.stack.tsNow()
		if withAck && c.tsEcho {
			seg.TSEcr = c.tsRecent
		}
	}
	if withAck {
		seg.Flags |= FlagACK
		seg.AckNum = c.rcvNxt
		if c.ecnOn {
			seg.Flags |= FlagECE
		}
	} else if c.cfg.UseECN {
		seg.Flags |= FlagECE | FlagCWR
	}
	c.lastWndAdv = int(seg.Window)
	if c.sndNxt == c.iss {
		c.sndNxt = c.iss.Add(1)
	}
	c.sndMax = maxSeq(c.sndMax, c.sndNxt)
	c.startRTTSample(c.iss)
	// The handshake expects a response too: a duty-cycled leaf must poll
	// fast for the SYN/ACK held in its parent's indirect queue (§9.2).
	c.setExpecting(true)
	c.transmit(seg, nil)
}

// output runs the tcp_output engine.
func (c *Conn) output() {
	c.sendLoop()
	c.checkInvariants("output")
}

// sendLoop sends as much as the usable window, the send buffer, Nagle,
// and recovery state allow.
func (c *Conn) sendLoop() {
	switch c.state {
	case StateEstablished, StateCloseWait, StateFinWait1, StateClosing, StateLastAck:
	default:
		return
	}
	mss := c.effMSS()
	spin := 0
	for {
		spin++
		if spin > 100000 {
			panic(fmt.Sprintf("output spin: state=%v una=%d nxt=%d max=%d queuedEnd=%d bufLen=%d wnd=%d cwnd=%d recovery=%v finQ=%v sacked=%d rtxPipe=%d sackNext=%d recover=%d",
				c.state, c.sndUna, c.sndNxt, c.sndMax, c.queuedEnd, c.sndBuf.Len(), c.sndWnd, c.cong.Cwnd(), c.inRecovery, c.finQueued, c.sb.SackedBytes(), c.rtxPipe, c.sackRtxNext, c.recover))
		}
		// Pacing gate: when the variant paces, nothing below may release
		// before paceNext — the timer re-enters output at that instant.
		// ACK-clocked variants return rate 0 and never block here, so
		// their send timing is bit-identical to the unpaced engine.
		if rate := c.pacingRate(); rate > 0 && c.now() < c.paceNext {
			c.paceTimer.ResetAt(c.paceNext)
			return
		}
		if c.inRecovery && c.peerSACK {
			if c.sackRetransmit() {
				continue
			}
		}
		win := c.sendWindow()
		offset := c.sndNxt.Diff(c.sndUna)
		if offset < 0 {
			offset = 0
		}
		dataEnd := c.queuedEnd
		avail := dataEnd.Diff(c.sndNxt)
		if avail < 0 {
			avail = 0
		}
		// Usable window beyond what is already in flight.
		usable := win - offset
		segLen := min(avail, min(usable, mss))

		// The FIN is due whenever snd.nxt sits exactly at the end of the
		// data stream — true both for the first transmission and after an
		// RTO pulled snd.nxt back (retransmission).
		sendFin := c.finQueued && !c.finAcked() && c.sndNxt == dataEnd &&
			(usable > 0 || offset == 0)

		// Sender-side silly window avoidance (RFC 1122 §4.2.3.4) with
		// Nagle folded in: send a full segment; or everything we have if
		// idle (or Nagle is off); or at least half the peer's largest
		// window; or a FIN.
		sendNow := sendFin
		switch {
		case segLen >= mss:
			sendNow = true
		case segLen > 0 && c.sndNxt.LT(c.sndMax):
			// Retransmission (snd.nxt was pulled back): never blocked by
			// silly-window rules, or an RTO could loop without sending.
			sendNow = true
		case segLen > 0 && segLen == avail && c.sndNxt == c.sndUna:
			sendNow = true
		case segLen > 0 && c.maxSndWnd > 0 && segLen >= c.maxSndWnd/2:
			sendNow = true
		}
		if !sendNow {
			// If data is stuck behind a closed or silly window with
			// nothing deliverable in flight, the persist timer is the
			// only thing that can make progress. With a closed window it
			// replaces the retransmission timer outright (BSD-style
			// rexmt/persist exclusivity): retransmitting into a zero
			// window is pointless and would loop the RTO to abort.
			pending := avail > 0 || (c.finQueued && !c.finAcked())
			if pending && c.sndNxt == c.sndUna && !c.armed(kindPersist) {
				if c.sndWnd == 0 {
					c.disarm(kindRexmt)
					c.schedulePersist()
				} else if !c.armed(kindRexmt) {
					c.schedulePersist()
				}
			}
			return
		}
		c.sendData(c.sndNxt, segLen, sendFin, false)
		// sendData advanced snd.nxt (by segLen and/or the FIN), so each
		// iteration makes progress until the window or buffer is spent.
	}
}

// sackRetransmit fills the next SACK hole during loss recovery; it
// returns true if a retransmission was sent. sackRtxNext is the scan
// cursor guaranteeing forward progress within one recovery episode, and
// rtxPipe accounts the retransmitted-but-unacknowledged bytes in the
// pipe estimate (packet conservation).
func (c *Conn) sackRetransmit() bool {
	if c.sb.Empty() {
		return false
	}
	pipe := c.sndMax.Diff(c.sndUna) - c.sb.SackedBytes() + c.rtxPipe
	if pipe >= c.cong.Cwnd() {
		return false
	}
	from := maxSeq(c.sndUna, c.sackRtxNext)
	hole, ok := c.sb.NextHole(from, minSeq(c.recover, c.sndMax))
	if !ok {
		return false
	}
	n := min(hole.End.Diff(hole.Start), c.effMSS())
	if n <= 0 {
		return false
	}
	c.Stats.SACKRetransmits++
	c.sackRtxNext = hole.Start.Add(n)
	c.rtxPipe += n
	c.sendData(hole.Start, n, false, true)
	return true
}

// sendData transmits one segment of segLen payload bytes starting at seq,
// optionally carrying FIN. rtx marks retransmissions (they do not move
// snd.nxt forward past snd.max bookkeeping).
func (c *Conn) sendData(seq Seq, segLen int, fin bool, rtx bool) {
	seg := Segment{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		SeqNum:  seq,
		AckNum:  c.rcvNxt,
		Flags:   FlagACK,
		Window:  uint16(clampInt(c.rcvQ.Window(), 0, 0xffff)),
	}
	// Options first: they fix the header length, so the payload can be
	// read from the send buffer straight to where it goes on the wire.
	c.attachCommonOptions(&seg)
	seg.SACKBlocks = c.sackBlocks(seg.sackStore[:0])
	var tx *txSlot
	if segLen > 0 {
		hl := seg.HeaderLen()
		tx = c.stack.getTx(hl + segLen)
		seg.Payload = tx.buf[hl : hl+segLen]
		got := c.sndBuf.ReadAt(seg.Payload, seq.Diff(c.sndUna))
		if got < segLen {
			seg.Payload = seg.Payload[:got]
			segLen = got
			if segLen == 0 && !fin {
				c.stack.putTx(tx)
				return
			}
		}
		if seq.Add(segLen) == c.queuedEnd {
			seg.Flags |= FlagPSH
		}
	}
	if fin {
		seg.Flags |= FlagFIN
	}
	if c.ecnOn && c.cwrToSend && segLen > 0 {
		seg.Flags |= FlagCWR
		c.cwrToSend = false
	}

	end := seq.Add(segLen + boolInt(fin))
	if !rtx || seq == c.sndNxt {
		c.sndNxt = maxSeq(c.sndNxt, end)
	}
	newData := end.GT(c.sndMax)
	c.sndMax = maxSeq(c.sndMax, end)
	if newData {
		c.startRTTSample(seq)
	} else if segLen > 0 || fin {
		// Counting `fin` too covers FIN-only retransmissions (RTO and
		// persist-probe paths), which the close-phase energy accounting
		// would otherwise miss.
		c.Stats.Retransmits++
	}
	c.paceCharge(segLen)
	if fin && !rtx {
		switch c.state {
		case StateEstablished:
			c.setState(StateFinWait1)
		case StateCloseWait:
			c.setState(StateLastAck)
		}
	}
	if c.probing {
		// Zero-window probes retransmit under the persist timer, never
		// the retransmission timer (the two are mutually exclusive, as
		// in BSD tcp_output).
		c.disarm(kindRexmt)
	} else {
		c.armRexmt()
	}
	c.setExpecting(true)
	c.transmit(&seg, tx)
	c.Stats.BytesSent += uint64(segLen)
	// Data segments carry an implicit ACK of everything received.
	c.ackSent()
}

// sendAck emits a pure ACK reflecting rcv.nxt, the window, SACK state,
// and ECN echo.
func (c *Conn) sendAck() {
	if c.state == StateClosed || c.state == StateListen {
		return
	}
	seg := Segment{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		SeqNum:  c.sndNxt,
		AckNum:  c.rcvNxt,
		Flags:   FlagACK,
		Window:  uint16(clampInt(c.rcvQ.Window(), 0, 0xffff)),
	}
	c.attachCommonOptions(&seg)
	seg.SACKBlocks = c.sackBlocks(seg.sackStore[:0])
	c.Stats.AcksSent++
	c.transmit(&seg, nil)
	c.ackSent()
}

// ackSent resets delayed-ACK state after any segment carrying an ACK.
func (c *Conn) ackSent() {
	c.segsToAck = 0
	c.delAckTimer.Stop()
	c.lastAckSeq = c.rcvNxt
	c.lastWndAdv = c.rcvQ.Window()
	if c.lastWndAdv > 0xffff {
		c.lastWndAdv = 0xffff
	}
}

// attachCommonOptions adds timestamps and ECN echo to an outgoing
// segment. SACK blocks are the caller's to attach (sackBlocks).
func (c *Conn) attachCommonOptions(seg *Segment) {
	if c.peerTS {
		seg.HasTS = true
		seg.TSVal = c.stack.tsNow()
		if c.tsEcho {
			seg.TSEcr = c.tsRecent
		}
	}
	if c.ecnOn && c.eceToSend {
		seg.Flags |= FlagECE
	}
}

// sackBlocks appends the receive queue's out-of-order ranges to dst as
// SACK blocks. A sender passes its segment's own sackStore[:0], as
// DecodeSegmentInto does, so a duplicate ACK allocates nothing — and
// assigns the result itself, to a Segment it holds by value: stored
// through a *Segment the self-reference would move every outgoing
// segment to the heap.
func (c *Conn) sackBlocks(dst []SACKBlock) []SACKBlock {
	if !c.peerSACK {
		return dst
	}
	var ranges [MaxSACKBlocks][2]int
	for _, r := range c.rcvQ.SACKRanges(ranges[:0], MaxSACKBlocks) {
		dst = append(dst, SACKBlock{Start: c.rcvNxt.Add(r[0]), End: c.rcvNxt.Add(r[1])})
	}
	return dst
}

// sendRST emits a reset carrying the given sequence number.
func (c *Conn) sendRST(seq Seq) {
	seg := &Segment{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		SeqNum:  seq,
		AckNum:  c.rcvNxt,
		Flags:   FlagRST | FlagACK,
	}
	c.transmit(seg, nil)
}

// transmit hands a segment to the stack's IP output; tx is the slot its
// payload was read into (nil for a segment without one). Data segments
// are marked ECT(0) when ECN is negotiated. When traced, each data
// transmission — original or retransmit — gets a fresh journey packet
// id so the analyzer can follow exactly this copy across the mesh.
func (c *Conn) transmit(seg *Segment, tx *txSlot) {
	c.Stats.SegsSent++
	if tr := c.stack.Trace; tr != nil && len(seg.Payload) > 0 {
		seg.JID = tr.NextID()
		// A = 0-based stream offset of the first payload byte (the SYN
		// occupies iss, so data starts at iss+1).
		tr.Emit(obs.Event{
			T: c.stack.eng.Now(), Kind: obs.JourneySeg, Node: c.stack.TraceNode,
			J: seg.JID, A: int64(seg.SeqNum.Diff(c.iss) - 1), Len: len(seg.Payload),
		})
	}
	c.emitJ(obs.TCPSend, seg.JID, int64(seg.SeqNum), int64(seg.AckNum), len(seg.Payload))
	var ecn ip6.ECN
	if c.ecnOn && len(seg.Payload) > 0 {
		ecn = ip6.ECT0
	}
	c.stack.sendSegment(c.localAddr, c.remoteAddr, seg, ecn, tx)
}

// startRTTSample begins timing seq's round trip if no sample is pending
// (Karn's rule; with timestamps every ACK provides a sample instead).
func (c *Conn) startRTTSample(seq Seq) {
	if c.peerTS || c.rttPending {
		return
	}
	c.rttPending = true
	c.rttSeq = seq
	c.rttTime = c.stack.eng.Now()
}

// ----- timers -----

// retxKind names what the retx slot holds: the retransmission, persist
// or 2MSL timer.
type retxKind uint8

const (
	kindRexmt retxKind = iota
	kindPersist
	kind2MSL
)

// retxNames name each kind in an invariants panic.
var retxNames = [...]string{"rexmt timer", "persist timer", "2MSL timer"}

// armed reports whether the retx slot is pending and holds kind k.
func (c *Conn) armed(k retxKind) bool { return c.retxKind == k && c.retx.Armed() }

// arm (re)arms the retx slot as kind k, to fire after d.
func (c *Conn) arm(k retxKind, d sim.Duration) {
	c.checkArm(k)
	c.retxKind = k
	c.retx.Reset(d)
}

// disarm stops the retx slot only while it holds k: an ACK that stops
// the rexmt mid-persist must leave the probe timer running.
func (c *Conn) disarm(k retxKind) {
	if c.retxKind == k {
		c.retx.Stop()
	}
}

// onRetx is the retx slot's callback: it runs the kind armed, then
// checks the connection.
func (c *Conn) onRetx() {
	k := c.retxKind
	switch k {
	case kindRexmt:
		c.onRTO()
	case kindPersist:
		c.onPersist()
	default:
		c.teardown(nil) // 2MSL elapsed in TIME_WAIT
	}
	c.checkInvariants(retxNames[k])
}

// armRexmt starts the retransmission timer if it is not running and
// something is in flight. Only sequence space actually sent counts (a
// transmitted FIN is inside snd.max): a FIN still queued behind a closed
// window is the persist timer's to push, and arming both would fire RTOs
// into the closed window (TestZeroWindowWithFinQueuedNoSpuriousRTO).
func (c *Conn) armRexmt() {
	if c.sndMax.Diff(c.sndUna) > 0 && !c.armed(kindRexmt) {
		c.arm(kindRexmt, c.rtt.Backoff(c.rexmtShift))
	}
}

// onRTO handles retransmission timeout: multiplicative decrease to one
// segment, slow-start restart, exponential backoff, and eventual abort.
func (c *Conn) onRTO() {
	if c.sndMax.Diff(c.sndUna) <= 0 && !(c.finQueued && !c.finAcked()) &&
		c.state != StateSynSent && c.state != StateSynReceived {
		// Stale timer: nothing outstanding to retransmit.
		c.rexmtShift = 0
		return
	}
	c.Stats.Timeouts++
	c.rexmtShift++
	c.emit(obs.TCPRTO, int64(c.rexmtShift), int64(c.rtt.RTO()), 0)
	if c.rexmtShift > c.cfg.MaxRetransmits {
		c.teardown(ErrConnTimeout)
		return
	}
	switch c.state {
	case StateSynSent, StateSynReceived:
		// Karn: the pending sample still times the ORIGINAL SYN, so the
		// eventual ACK would seed srtt with the whole backoff interval.
		// Restart it so only the final round trip is measured.
		// (Restarting rather than skipping trades the unbounded
		// RTO-inflated overestimate for a bounded underestimate when the
		// SYN/ACK was merely delayed past the initial RTO — preferable,
		// since the handshake is the only sample source until data flows.)
		c.rttPending = false
		c.sendSYN(c.state == StateSynReceived)
		c.arm(kindRexmt, c.rtt.Backoff(c.rexmtShift))
		return
	}
	mss := c.effMSS()
	flight := min(c.sndMax.Diff(c.sndUna), c.sendWindow())
	c.cong.OnRTO(c.now(), mss, flight)
	c.traceCwnd()
	c.inRecovery = false
	// RFC 6582: remember the highest sequence sent so later duplicate
	// ACKs for this same window do not re-enter fast recovery.
	c.recover = c.sndMax
	c.dupAcks = 0
	c.sb.Reset()
	c.rttPending = false // Karn: do not sample retransmitted segments
	c.rtxPipe = 0
	c.sndNxt = c.sndUna
	c.arm(kindRexmt, c.rtt.Backoff(c.rexmtShift))
	c.output()
}

// schedulePersist arms the zero-window probe timer.
func (c *Conn) schedulePersist() {
	d := clampDur(c.rtt.Backoff(c.persistShift), 5*sim.Second/10, 60*sim.Second)
	c.arm(kindPersist, d)
}

// onPersist forces progress through a closed (or silly) window: it sends
// one byte of data — or the FIN — regardless of window checks. Each
// probe restarts from snd.una (the closed window almost certainly
// dropped the previous one) and the cycle always rearms: the probe byte
// and the FIN's phantom slot must not be mistaken for "real data in
// flight", or the prober dies with nothing else armed and the
// connection deadlocks against a zero window.
func (c *Conn) onPersist() {
	if c.state == StateClosed {
		return
	}
	pendingFin := c.finQueued && !c.finAcked()
	unsent := c.queuedEnd.Diff(c.sndUna)
	if unsent <= 0 && !pendingFin {
		return
	}
	flight := c.sndNxt.Diff(c.sndUna)
	if pendingFin && c.sndNxt.GT(c.queuedEnd) {
		flight-- // the transmitted FIN occupies sequence space, not data
	}
	if flight > 1 {
		// Real data beyond a probe is in flight; its ACK or RTO drives us.
		return
	}
	c.Stats.ZeroWindowProbes++
	c.probing = true
	// Karn: a re-probe makes any pending RTT sample ambiguous — without
	// this the first probe's sample survives the whole persist episode
	// and the reopening ACK would feed the estimator minutes of "RTT".
	// The first probe is still timed (sendData restarts the sample for
	// data that was never sent before).
	c.rttPending = false
	c.sndNxt = c.sndUna // re-probe from the window edge
	if unsent > 0 {
		// One byte of data; the FIN rides along when it is next in line.
		c.sendData(c.sndNxt, 1, pendingFin && unsent == 1, false)
	} else {
		c.sendData(c.sndNxt, 0, true, false)
	}
	c.probing = false
	c.persistShift++
	c.schedulePersist()
}

// onDelAck flushes a pending delayed acknowledgment.
func (c *Conn) onDelAck() {
	c.Stats.DelayedAcks++
	c.sendAck()
	c.checkInvariants("delayed-ACK timer")
}

func (c *Conn) enterTimeWait() {
	c.setState(StateTimeWait)
	c.retx.Stop()
	c.arm(kind2MSL, 2*maxSegmentLifetime)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
