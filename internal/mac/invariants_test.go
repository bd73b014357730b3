//go:build invariants

package mac

import (
	"fmt"
	"strings"
	"testing"

	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one naming %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one naming %q", msg, want)
		}
	}()
	f()
}

// TestInvariantsCatchBrokenMac: the checks have teeth. Each case breaks
// the MAC the way the deleted defences guarded against — a frame left
// queued with nothing to start it, a job finished under a pending step,
// a second step for one frame — and the next check panics. Every other
// test of the package runs under the same checks and must not.
func TestInvariantsCatchBrokenMac(t *testing.T) {
	t.Run("kick skipped", func(t *testing.T) {
		eng, a, b := pair(21)
		a.sendingAck = true // kick returns as if an ACK were on air...
		a.SendJID(b.Radio().Addr(), []byte("stranded"), 0, nil)
		a.sendingAck = false // ...and no ACK end will kick again
		b.SendJID(phy.BroadcastAddr, []byte("wakes a's checks"), 0, nil)
		mustPanic(t, "after receive: lost wakeup", eng.Run)
	})
	t.Run("finish under a pending step", func(t *testing.T) {
		_, a, b := pair(22)
		a.SendJID(b.Radio().Addr(), []byte("loading"), 0, nil)
		mustPanic(t, "in finish: the finished frame has a step pending: resume", func() { a.finish(TxChannelBusy) })
	})
	t.Run("second step for one frame", func(t *testing.T) {
		eng, a, b := pair(23)
		a.SendJID(b.Radio().Addr(), []byte("in backoff"), 0, nil)
		eng.RunUntil(sim.Time(phy.LoadTime(phy.FrameOverhead + 10))) // loaded: one backoff step pending
		if a.inflight == nil || a.inflight.wire == nil || !a.step.Armed() || a.next != stepFire {
			t.Fatalf("want the frame in backoff, got in flight %v, step armed %v, next %s", a.inflight != nil, a.step.Armed(), stepNames[a.next])
		}
		// A path that takes a backoff step twice.
		mustPanic(t, "when arming a step: a step is already pending: backoff fire", a.backoffStep)
	})
}
