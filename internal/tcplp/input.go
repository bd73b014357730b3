package tcplp

import (
	"tcplp/internal/obs"
	"tcplp/internal/sim"
)

// input is the segment arrival entry point (tcp_input). ce reports
// whether the IP header carried the ECN Congestion Experienced mark.
func (c *Conn) input(seg *Segment, ce bool) {
	c.Stats.SegsRecv++
	c.emitJ(obs.TCPRecv, seg.JID, int64(seg.SeqNum), int64(seg.AckNum), len(seg.Payload))
	switch c.state {
	case StateClosed:
		return
	case StateSynSent:
		c.inputSynSent(seg)
		return
	case StateTimeWait:
		if seg.Flags.Has(FlagRST) {
			c.teardown(nil)
			return
		}
		// Re-ACK and restart 2MSL only for segments occupying sequence
		// space (a retransmitted FIN or data); answering pure ACKs here
		// would let two TIME_WAIT peers ping-pong forever.
		if seg.Len() > 0 {
			c.sendAck()
			c.arm(kind2MSL, 2*maxSegmentLifetime)
		}
		return
	}

	// Header prediction (§4.1): the common cases — a pure in-window ACK
	// for outstanding data, or the next expected in-order data segment —
	// are recognized up front, as in the FreeBSD fast path. The full path
	// below handles them identically; the counters record how often the
	// prediction would have hit.
	if c.state == StateEstablished && seg.Flags&(FlagSYN|FlagFIN|FlagRST|FlagURG) == 0 &&
		seg.Flags.Has(FlagACK) && seg.SeqNum == c.rcvNxt {
		if len(seg.Payload) == 0 && seg.AckNum.GT(c.sndUna) && seg.AckNum.LEQ(c.sndMax) {
			c.Stats.PredictedAcks++
		} else if len(seg.Payload) > 0 && seg.AckNum == c.sndUna &&
			len(seg.Payload) <= c.rcvQ.Window() {
			c.Stats.PredictedData++
		}
	}

	// Timestamp echo bookkeeping (RFC 7323 §4.3): update TS.Recent only
	// from the segment spanning Last.ACK.sent. Under delayed ACKs this
	// echoes the FIRST unacknowledged segment's timestamp, so the peer's
	// RTT sample correctly includes the delayed-ACK wait.
	if seg.HasTS && seg.SeqNum.LEQ(c.lastAckSeq) &&
		c.lastAckSeq.LT(seg.SeqNum.Add(seg.Len()+1)) {
		c.tsRecent = seg.TSVal
		c.tsEcho = true
	}

	// Step 1 (RFC 793): sequence acceptability.
	if !c.segAcceptable(seg) {
		if !seg.Flags.Has(FlagRST) {
			c.Stats.ChallengeAcks++
			c.sendAck()
		}
		return
	}

	// Step 2: RST, hardened per RFC 5961 (challenge ACKs, §4.1).
	if seg.Flags.Has(FlagRST) {
		if seg.SeqNum == c.rcvNxt {
			err := ErrConnReset
			if c.state == StateSynReceived {
				err = ErrConnRefused
			}
			c.teardown(err)
		} else {
			c.Stats.ChallengeAcks++
			c.sendAck()
		}
		return
	}

	// Step 3: SYN in window is always a challenge-ACK case (RFC 5961).
	if seg.Flags.Has(FlagSYN) {
		c.Stats.ChallengeAcks++
		c.sendAck()
		return
	}

	// Step 4: an ACK is required from here on.
	if !seg.Flags.Has(FlagACK) {
		return
	}
	if !c.processAck(seg) {
		return
	}
	if c.state == StateClosed {
		return
	}

	// Step 5: payload.
	c.processPayload(seg, ce)

	// Step 6: FIN.
	if seg.Flags.Has(FlagFIN) {
		c.processFin(seg)
	}

	c.output()
}

// segAcceptable implements the RFC 793 four-case window check.
func (c *Conn) segAcceptable(seg *Segment) bool {
	segLen := seg.Len()
	win := c.rcvQ.Window()
	first := seg.SeqNum
	last := seg.SeqNum.Add(segLen - 1)
	switch {
	case segLen == 0 && win == 0:
		return first == c.rcvNxt
	case segLen == 0:
		return first.GEQ(c.rcvNxt) && first.LT(c.rcvNxt.Add(win)) || first == c.rcvNxt
	case win == 0:
		return false
	default:
		inWin := func(s Seq) bool { return s.GEQ(c.rcvNxt) && s.LT(c.rcvNxt.Add(win)) }
		return inWin(first) || inWin(last) || (first.LT(c.rcvNxt) && last.GEQ(c.rcvNxt))
	}
}

// inputSynSent handles segments during an active open.
func (c *Conn) inputSynSent(seg *Segment) {
	ackOK := false
	if seg.Flags.Has(FlagACK) {
		if seg.AckNum.LEQ(c.iss) || seg.AckNum.GT(c.sndMax) {
			if !seg.Flags.Has(FlagRST) {
				c.sendRST(seg.AckNum)
			}
			return
		}
		ackOK = true
	}
	if seg.Flags.Has(FlagRST) {
		if ackOK {
			c.teardown(ErrConnRefused)
		}
		return
	}
	if !seg.Flags.Has(FlagSYN) {
		return
	}
	c.irs = seg.SeqNum
	c.rcvNxt = seg.SeqNum.Add(1)
	c.lastAckSeq = c.rcvNxt
	c.applySynOptions(seg)
	// ECN negotiation: SYN/ACK with ECE set and CWR clear accepts ECN.
	if c.cfg.UseECN && seg.Flags.Has(FlagECE) && !seg.Flags.Has(FlagCWR) {
		c.ecnOn = true
	}
	if ackOK {
		c.sndUna = seg.AckNum
		c.rexmtShift = 0
		c.disarm(kindRexmt)
		c.sampleRTTFromSeg(seg)
		c.sndWnd = int(seg.Window)
		c.maxSndWnd = c.sndWnd
		c.sndWL1, c.sndWL2 = seg.SeqNum, seg.AckNum
		c.setState(StateEstablished)
		c.sendAck()
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		c.output()
		return
	}
	// Simultaneous open.
	c.setState(StateSynReceived)
	c.sndNxt = c.iss
	c.sendSYN(true)
	c.armRexmt()
}

// sampleRTTFromSeg feeds the RTT estimator from a timestamp echo or the
// timed-segment fallback. Echo validity is the RFC 7323 §3.2 rule —
// TSEcr is meaningful exactly when the segment carries an ACK — not
// "TSEcr != 0": a zero echo is legitimate when the timestamp clock
// reads 0 at wrap, and treating it as absent would silently drop the
// sample.
func (c *Conn) sampleRTTFromSeg(seg *Segment) {
	now := c.stack.eng.Now()
	if c.peerTS && seg.HasTS && seg.Flags.Has(FlagACK) {
		elapsed := sim.Duration(c.stack.tsNow()-seg.TSEcr) * sim.Millisecond
		if elapsed >= 0 && elapsed < sim.Duration(5*sim.Minute) {
			c.rtt.Sample(elapsed)
			if c.TraceRTT != nil {
				c.TraceRTT(elapsed)
			}
		}
		return
	}
	if c.rttPending && seg.AckNum.GT(c.rttSeq) {
		sample := now.Sub(c.rttTime)
		c.rtt.Sample(sample)
		c.rttPending = false
		if c.TraceRTT != nil {
			c.TraceRTT(sample)
		}
	}
}

// processAck runs ACK processing; it returns false if the segment must
// not be processed further (e.g. an unacceptable ACK in SYN_RCVD).
func (c *Conn) processAck(seg *Segment) bool {
	ack := seg.AckNum

	if c.state == StateSynReceived {
		if ack.LEQ(c.sndUna) || ack.GT(c.sndMax) {
			c.sendRST(ack)
			return false
		}
		c.setState(StateEstablished)
		c.rexmtShift = 0
		// The SYN/ACK is acknowledged: its retransmission timer must die
		// with it, or it would back off silently and eventually abort an
		// idle (receive-only) connection.
		c.disarm(kindRexmt)
		// Consume the SYN's phantom sequence slot now, so data written
		// from the accept callback is addressed from the stream base.
		if c.sndUna == c.iss {
			c.sndUna = c.iss.Add(1)
		}
		c.sndWnd = int(seg.Window)
		c.maxSndWnd = c.sndWnd
		c.sndWL1, c.sndWL2 = seg.SeqNum, seg.AckNum
		if c.OnEstablished != nil {
			c.OnEstablished()
		}
		c.stack.notifyAccept(c)
	}

	// Record SACK information whatever kind of ACK this is. A block ending
	// beyond snd.max acknowledges data never sent and is discarded whole
	// (RFC 2018 §5, FreeBSD tcp_sack_doack).
	if c.peerSACK {
		for _, blk := range seg.SACKBlocks {
			if blk.End.LEQ(c.sndMax) {
				c.sb.Add(blk, c.sndUna)
			}
		}
	}

	// ECN echo: congestion signal from the receiver.
	if c.ecnOn && seg.Flags.Has(FlagECE) {
		c.ecnCongestionResponse()
	}

	// Apply the window update before ACK processing: handleNewAck may
	// invoke the app's OnWritable callback, which can write and trigger
	// output() — that must see this segment's window, not a stale one.
	// The pre-update window is captured for duplicate-ACK detection.
	wndBefore := c.sndWnd
	c.updateSendWindow(seg)

	switch {
	case ack.GT(c.sndMax):
		// ACK for data never sent: challenge.
		c.Stats.ChallengeAcks++
		c.sendAck()
		return false

	case ack.LEQ(c.sndUna):
		// Duplicate or old ACK. A zero-window ACK never qualifies: it is
		// the receiver answering a persist probe (flow control), not
		// out-of-order data signalling loss — counting it would drive
		// fast retransmit and an RTO backoff cycle straight into the
		// closed window, racing the prober toward a spurious abort.
		dup := ack == c.sndUna && len(seg.Payload) == 0 &&
			int(seg.Window) == wndBefore && wndBefore > 0 &&
			c.sndMax.Diff(c.sndUna) > 0 &&
			!seg.Flags.Has(FlagFIN)
		if dup {
			c.Stats.DupAcksIn++
			c.dupAcks++
			c.onDupAck()
		}

	default:
		// New data acknowledged.
		c.handleNewAck(seg, ack)
	}
	return true
}

// onDupAck implements the fast retransmit / fast recovery entry (the
// variant sets the post-decrease window) and window inflation.
func (c *Conn) onDupAck() {
	mss := c.effMSS()
	switch {
	case c.dupAcks == 3 && !c.inRecovery:
		// RFC 6582: avoid spurious re-entry after a timeout — only enter
		// recovery if the ACK covers more than `recover`.
		if c.sndUna.LT(c.recover) && c.recover.GT(c.iss) {
			return
		}
		flight := min(c.sndMax.Diff(c.sndUna), c.sendWindow())
		c.cong.OnDupAck(c.now(), mss, flight)
		c.inRecovery = true
		c.recover = c.sndMax
		c.sackRtxNext = c.sndUna
		c.rtxPipe = 0
		c.Stats.FastRetransmits++
		c.emit(obs.TCPFastRtx, int64(c.dupAcks), 0, 0)
		n := min(mss, c.queuedEnd.Diff(c.sndUna))
		if n > 0 {
			c.sendData(c.sndUna, n, false, true)
		} else if c.finQueued {
			c.sendData(c.sndUna, 0, true, true)
		}
		c.traceCwnd()
		c.output()
	case c.inRecovery && c.dupAcks > 3:
		c.cong.OnDupAckInflate(mss)
		c.traceCwnd()
		c.output()
	}
}

// handleNewAck processes an ACK that advances snd.una.
func (c *Conn) handleNewAck(seg *Segment, ack Seq) {
	mss := c.effMSS()
	acked := ack.Diff(c.sndUna)
	c.sampleRTTFromSeg(seg)
	c.rexmtShift = 0

	if c.inRecovery {
		if ack.GEQ(c.recover) {
			// Full acknowledgment: recovery ends (RFC 6582).
			c.cong.OnExitRecovery(c.now(), mss, acked, c.sndMax.Diff(ack), c.rtt.SRTT())
			c.inRecovery = false
			c.dupAcks = 0
			c.rtxPipe = 0
		} else {
			// Partial acknowledgment: retransmit the next hole, deflate
			// by the amount acked, allow one more segment.
			dataLeft := c.queuedEnd.Diff(ack)
			n := min(mss, dataLeft)
			if n > 0 && !c.peerSACK {
				c.sendData(ack, n, false, true) // New Reno, no SACK to name the holes
			}
			c.cong.OnPartialAck(c.now(), mss, acked, c.rtt.SRTT())
			c.sackRtxNext = ack
		}
		c.traceCwnd()
	} else {
		c.dupAcks = 0
		// Congestion avoidance / slow start growth is the variant's call.
		c.cong.OnAck(c.now(), mss, acked, c.rtt.SRTT())
		c.traceCwnd()
	}

	// Consume acknowledged bytes, excluding phantom sequence slots: the
	// SYN (when this ACK is the one completing a passive open) and the
	// FIN (when the ACK covers it) occupy sequence numbers but no buffer
	// bytes.
	phantoms := 0
	if c.sndUna == c.iss {
		phantoms++ // our SYN
	}
	if c.finQueued && ack.GT(c.queuedEnd) {
		phantoms++ // our FIN
	}
	dataAcked := min(acked-phantoms, c.sndBuf.Len())
	if dataAcked > 0 {
		c.sndBuf.Discard(dataAcked)
	}
	c.sndUna = ack
	c.sb.AdvanceUna(ack)
	c.rtxPipe = max(0, c.rtxPipe-acked)
	if c.sndNxt.LT(c.sndUna) {
		c.sndNxt = c.sndUna
	}
	c.disarm(kindRexmt) // forward progress: time whatever is still in flight afresh
	c.armRexmt()
	c.persistShift = 0

	if c.sndMax.Diff(c.sndUna) == 0 {
		c.setExpecting(false)
	}

	// Our FIN acknowledged?
	if c.finAcked() {
		switch c.state {
		case StateFinWait1:
			c.setState(StateFinWait2)
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.teardown(nil)
			return
		}
	}
	if dataAcked > 0 && c.OnWritable != nil && c.sndBuf.Free() > 0 {
		c.OnWritable()
	}
}

// updateSendWindow applies the RFC 793 window-update rules.
func (c *Conn) updateSendWindow(seg *Segment) {
	if seg.SeqNum.GT(c.sndWL1) ||
		(seg.SeqNum == c.sndWL1 && seg.AckNum.GEQ(c.sndWL2)) {
		c.sndWnd = int(seg.Window)
		c.maxSndWnd = max(c.maxSndWnd, c.sndWnd)
		c.sndWL1, c.sndWL2 = seg.SeqNum, seg.AckNum
		if c.sndWnd > 0 {
			if c.armed(kindPersist) && c.sndNxt.GT(c.sndUna) {
				// Window reopened mid-probe: whatever the probes pushed
				// out was dropped by the closed window, so pull snd.nxt
				// back and let normal output retransmit it immediately —
				// with the persist timer gone, nothing else would.
				c.sndNxt = c.sndUna
			}
			c.disarm(kindPersist)
			c.persistShift = 0
		}
	}
}

// ecnCongestionResponse reduces the window once per window of data in
// response to an ECN echo (RFC 3168 §6.1.2).
func (c *Conn) ecnCongestionResponse() {
	if c.sndUna.LT(c.ecnRecover) && c.ecnRecover.GT(c.iss) {
		return
	}
	mss := c.effMSS()
	flight := min(c.sndMax.Diff(c.sndUna), c.sendWindow())
	c.cong.OnECN(c.now(), mss, flight)
	c.ecnRecover = c.sndMax
	c.cwrToSend = true
	c.Stats.ECNCongestionResponses++
	c.traceCwnd()
}

// processPayload feeds arriving data into the reassembly queue and runs
// the delayed-ACK policy.
func (c *Conn) processPayload(seg *Segment, ce bool) {
	switch c.state {
	case StateEstablished, StateFinWait1, StateFinWait2:
	default:
		return
	}
	if len(seg.Payload) == 0 {
		return
	}
	if ce && c.ecnOn {
		c.eceToSend = true
	}
	if c.ecnOn && seg.Flags.Has(FlagCWR) {
		c.eceToSend = false
	}
	off := seg.SeqNum.Diff(c.rcvNxt)
	hadOOO := c.rcvQ.OutOfOrder() > 0
	made := c.rcvQ.made
	adv := c.rcvQ.Write(off, seg.Payload)
	c.stack.Stats.BufBytes += uint64(c.rcvQ.made - made)
	c.rcvNxt = c.rcvNxt.Add(adv)
	c.Stats.BytesRecv += uint64(adv)

	switch {
	case off > 0:
		// Out of order: immediate duplicate ACK with SACK blocks.
		c.Stats.OutOfOrderSegs++
		c.sendAck()
	case adv == 0:
		// Entirely duplicate data: re-ACK immediately (our ACK was lost).
		c.Stats.DupSegs++
		c.sendAck()
	default:
		if hadOOO {
			// We just filled (part of) a gap: ACK immediately so the
			// sender's recovery sees the advance.
			c.sendAck()
		} else {
			c.segsToAck++
			if !c.cfg.UseDelayedAcks || c.segsToAck >= 2 {
				c.sendAck()
			} else if !c.delAckTimer.Armed() {
				c.delAckTimer.Reset(delayedAckTimeout)
			}
		}
		if c.OnReadable != nil {
			c.OnReadable()
		}
	}
}

// processFin handles an in-order FIN.
func (c *Conn) processFin(seg *Segment) {
	finSeq := seg.SeqNum.Add(len(seg.Payload))
	if finSeq != c.rcvNxt {
		// Out-of-order FIN: the peer retransmits it after its data.
		return
	}
	if c.finReceived {
		c.sendAck()
		return
	}
	c.finReceived = true
	c.finSeq = finSeq
	c.rcvNxt = c.rcvNxt.Add(1)
	switch c.state {
	case StateEstablished:
		c.setState(StateCloseWait)
	case StateFinWait1:
		if c.finAcked() {
			c.enterTimeWait()
		} else {
			c.setState(StateClosing)
		}
	case StateFinWait2:
		c.enterTimeWait()
	}
	c.sendAck()
	if c.OnReadable != nil {
		c.OnReadable()
	}
}
