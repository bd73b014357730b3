//go:build invariants

package mac

import "fmt"

// checkArm panics when a step is armed for a frame whose step slot is
// already taken: a second pending step for one frame.
func (m *Mac) checkArm() {
	if m.step.Armed() {
		m.fail("when arming a step", "a step is already pending: "+stepNames[m.next])
	}
}

// checkFinish panics when a frame finishes under a pending step other
// than its ACK timeout.
func (m *Mac) checkFinish() {
	if m.step.Armed() && m.next != stepAckTimeout {
		m.fail("in finish", "the finished frame has a step pending: "+stepNames[m.next])
	}
}

// checkInvariants panics when the MAC breaks a rule of the package
// comment's "One frame, one step": frames queued means one in flight, an
// ACK being sent or the radio transmitting (no lost wakeup); with nothing
// in flight no step is armed and no ACK awaited; and a frame in flight
// waits on its step, on the air, or on an ACK being sent that cut its
// ACK wait short.
func (m *Mac) checkInvariants(where string) {
	cut := m.sendingAck && m.ackWasWaiting
	switch {
	case m.qHead != nil && m.inflight == nil && !m.sendingAck && !m.radio.Transmitting():
		m.fail("after "+where, "lost wakeup: frames queued, none in flight, no ACK being sent")
	case m.inflight == nil && (m.step.Armed() || cut):
		m.fail("after "+where, "a step or an ACK wait with nothing in flight")
	case m.inflight != nil && !m.step.Armed() && !cut && (m.sendingAck || !m.radio.Transmitting()):
		m.fail("after "+where, "the frame in flight waits on nothing")
	}
}

func (m *Mac) fail(where, msg string) {
	panic(fmt.Sprintf("mac: invariant broken %s: %s\n  node=%d t=%v inflight=%v queued=%v step=%v next=%s sendingAck=%v ackWasWaiting=%v radio=%v",
		where, msg, m.radio.ID(), m.eng.Now(), m.inflight != nil, m.qHead != nil, m.step.Armed(),
		stepNames[m.next], m.sendingAck, m.ackWasWaiting, m.radio.State()))
}
