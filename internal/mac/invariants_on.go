//go:build invariants

package mac

import "fmt"

// stepCount counts the pending steps of the frame in flight: engine
// events holding resumeFn, stepFn or fireFn, and the radio's OnTxDone
// holding txDoneFn. The wait for an ACK is not a step.
type stepCount struct{ n int }

func (s *stepCount) add(d int) { s.n += d }

// step wraps a step callback, which must be the frame's one pending step.
func (m *Mac) step(where string, f func()) func() {
	return func() {
		if m.inflight == nil || m.steps.n != 1 {
			m.fail(where, "a step ran that was not the frame's one pending step")
		}
		m.steps.n--
		f()
		m.checkInvariants(where)
	}
}

func (m *Mac) checked(where string, f func()) func() {
	return func() { f(); m.checkInvariants(where) }
}

func (m *Mac) checkedRx(f func([]byte)) func([]byte) {
	return func(data []byte) { f(data); m.checkInvariants("receive") }
}

func (m *Mac) checkFinish() {
	if m.steps.n != 0 {
		m.fail("finish", fmt.Sprintf("the finished frame has %d step(s) pending", m.steps.n))
	}
}

// checkInvariants panics when the MAC breaks a rule of the package
// comment's "One frame, one step": frames queued means one in flight, an
// ACK being sent or the radio transmitting (no lost wakeup), and the
// frame in flight has exactly one pending step or awaits its ACK, while
// with nothing in flight there is neither (one step).
func (m *Mac) checkInvariants(where string) {
	waiting := m.ackTimer.Armed() || (m.sendingAck && m.ackWasWaiting)
	want := 0
	if m.inflight != nil && !waiting {
		want = 1
	}
	switch {
	case len(m.queue) > 0 && m.inflight == nil && !m.sendingAck && !m.radio.Transmitting():
		m.fail(where, "lost wakeup: frames queued, none in flight, no ACK being sent")
	case m.inflight == nil && waiting:
		m.fail(where, "an ACK awaited with nothing in flight")
	case m.steps.n != want:
		m.fail(where, fmt.Sprintf("%d step(s) pending, want %d", m.steps.n, want))
	}
}

func (m *Mac) fail(where, msg string) {
	panic(fmt.Sprintf("mac: invariant broken after %s: %s\n  node=%d t=%v inflight=%v queue=%d steps=%d sendingAck=%v ackWasWaiting=%v ackTimer=%v radio=%v",
		where, msg, m.radio.ID(), m.eng.Now(), m.inflight != nil, len(m.queue), m.steps.n,
		m.sendingAck, m.ackWasWaiting, m.ackTimer.Armed(), m.radio.State()))
}
