//go:build invariants

package tcplp

import (
	"fmt"
	"math/bits"
)

// checkInvariants panics when the connection's sequence space, buffers,
// scoreboard or timers contradict each other. Under
//
//	go test -tags invariants ./internal/tcplp/ ./internal/stack/ ./internal/scenario/ ./internal/experiments/
//
// it runs after every segment input, every pass of the output engine and
// every timer callback (the pacing timer's is output), so each golden and
// digest test doubles as a state-machine check: a run that passes without
// the tag and panics with it reached a state TCP cannot be in. A build
// tag, like poison — the two builds differ in nothing else. where names
// the step just taken.
func (c *Conn) checkInvariants(where string) {
	if msg := c.brokenInvariant(); msg != "" {
		panic(fmt.Sprintf("tcplp: invariant broken after %s: %s\n  state=%v una=%d nxt=%d max=%d queuedEnd=%d iss=%d finQueued=%v sndBuf=%d/%d sndWnd=%d cwnd=%d recovery=%v sb=%v\n  rcvNxt=%d readable=%d ooo=%d window=%d lastAck=%d lastWnd=%d retx=%v (%s) delack=%v pace=%v",
			where, msg,
			c.state, c.sndUna, c.sndNxt, c.sndMax, c.queuedEnd, c.iss, c.finQueued,
			c.sndBuf.Len(), c.sndBuf.Capacity(), c.sndWnd, c.cong.Cwnd(), c.inRecovery, c.sb.ranges,
			c.rcvNxt, c.rcvQ.Readable(), c.rcvQ.OutOfOrder(), c.rcvQ.Window(), c.lastAckSeq, c.lastWndAdv,
			c.retx.Armed(), retxNames[c.retxKind], c.delAckTimer.Armed(), c.paceTimer.Armed()))
	}
}

// checkArm panics when the retx slot is armed as k while another kind is
// pending: FreeBSD's tcp_setpersist assertion, for all three kinds.
func (c *Conn) checkArm(k retxKind) {
	if c.retx.Armed() && c.retxKind != k {
		panic(fmt.Sprintf("tcplp: invariant broken when arming the %s: the %s is pending (state=%v una=%d nxt=%d max=%d sndWnd=%d)",
			retxNames[k], retxNames[c.retxKind], c.state, c.sndUna, c.sndNxt, c.sndMax, c.sndWnd))
	}
}

// brokenInvariant names the first invariant that does not hold, or
// returns "".
func (c *Conn) brokenInvariant() string {
	// Send sequence space: una ≤ nxt ≤ max.
	if c.sndUna.GT(c.sndNxt) || c.sndNxt.GT(c.sndMax) {
		return "una <= nxt <= max"
	}
	// The send buffer holds exactly the bytes between una and the end of
	// what the app queued. The SYN (una == iss) and an acknowledged FIN
	// (una == queuedEnd+1) occupy sequence numbers, not buffer bytes.
	want := c.queuedEnd.Diff(c.sndUna)
	if c.sndUna == c.iss {
		want--
	}
	if want < 0 {
		want = 0
	}
	if got := c.sndBuf.Len(); got != want {
		return fmt.Sprintf("sndBuf.Len() = %d, queuedEnd - una = %d", got, want)
	}
	if b := &c.sndBuf; b.buf == nil && b.n != 0 || b.buf != nil && len(b.buf) != b.size {
		return fmt.Sprintf("sndBuf holds %d bytes in an array of %d, capacity %d", b.n, len(b.buf), b.size)
	}
	if c.state != StateClosed && c.cong.Cwnd() < c.effMSS() {
		return fmt.Sprintf("cwnd %d < 1 MSS (%d)", c.cong.Cwnd(), c.effMSS())
	}
	// SACK scoreboard: sorted, disjoint, non-empty ranges in [una, max).
	for i, r := range c.sb.ranges {
		if r.Start.LT(c.sndUna) || r.End.LEQ(r.Start) || r.End.GT(c.sndMax) {
			return fmt.Sprintf("scoreboard range %d [%d,%d) outside [una,max)", i, r.Start, r.End)
		}
		if i > 0 && r.Start.LT(c.sb.ranges[i-1].End) {
			return fmt.Sprintf("scoreboard ranges %d and %d overlap or are out of order", i-1, i)
		}
	}
	if msg := c.rcvQ.brokenInvariant(); msg != "" {
		return "rcvQ: " + msg
	}
	// The right edge of the window we advertised never moves left: bytes
	// arriving advance rcv.nxt and shrink the window by the same amount,
	// reads only grow it.
	if edge := c.rcvNxt.Add(c.rcvQ.Window()); c.lastAckSeq.Add(c.lastWndAdv).GT(edge) {
		return fmt.Sprintf("advertised window edge %d retreated to %d", c.lastAckSeq.Add(c.lastWndAdv), edge)
	}
	if c.state == StateClosed && (c.retx.Armed() || c.delAckTimer.Armed() || c.paceTimer.Armed()) {
		return "timer armed on a CLOSED connection"
	}
	return ""
}

// brokenInvariant checks the presence bitmap against the queue's
// counters: every readable byte is marked, the marks beyond the readable
// run number exactly OutOfOrder() and none of them sits at the frontier
// (it would have advanced), and no spare bit past the array's end is set.
// Before its first data byte the queue has no array and holds nothing;
// after it, the array is no longer than the capacity and the bitmap has
// a bit per byte of the array.
func (b *RecvBuffer) brokenInvariant() string {
	if b.readable < 0 || b.readable > b.size || b.ooo < 0 || b.ooo > b.Window() {
		return fmt.Sprintf("readable %d / ooo %d out of range (capacity %d)", b.readable, b.ooo, b.size)
	}
	if b.buf == nil {
		if b.bits != nil || b.readable != 0 || b.ooo != 0 || b.start != 0 {
			return fmt.Sprintf("no array, but bitmap %d words, readable %d, ooo %d, start %d", len(b.bits), b.readable, b.ooo, b.start)
		}
		return ""
	}
	if len(b.buf) > b.size || len(b.bits) != (len(b.buf)+63)/64 || b.start >= len(b.buf) || b.readable+b.ooo > len(b.buf) {
		return fmt.Sprintf("array %d bytes, bitmap %d words, start %d, readable %d and ooo %d for capacity %d",
			len(b.buf), len(b.bits), b.start, b.readable, b.ooo, b.size)
	}
	set := 0
	for _, w := range b.bits {
		set += bits.OnesCount64(w)
	}
	if n := len(b.buf) % 64; n != 0 && b.bits[len(b.bits)-1]>>n != 0 {
		return fmt.Sprintf("spare bitmap bit set beyond capacity %d", len(b.buf))
	}
	for i := 0; i < b.readable; i++ {
		if !b.bit(b.idx(i)) {
			return fmt.Sprintf("readable byte %d of %d not marked present", i, b.readable)
		}
	}
	if beyond := set - b.readable; beyond != b.ooo {
		return fmt.Sprintf("%d bytes marked beyond the readable run, OutOfOrder() = %d", beyond, b.ooo)
	}
	if b.readable < len(b.buf) && b.bit(b.idx(b.readable)) {
		return "byte at the in-sequence frontier marked present but not readable"
	}
	return ""
}
