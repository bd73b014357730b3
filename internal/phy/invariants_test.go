//go:build invariants

package phy

import (
	"strings"
	"testing"

	"tcplp/internal/sim"
)

// The locked-list check fires: a receiver cut from the list while it still
// holds the frame is caught at the frame's end.
func TestLockedCheckFires(t *testing.T) {
	eng, ch := lineTopo(t, 3, 1.0)
	for _, r := range ch.Radios() {
		r.SetListen(true)
	}
	a := ch.Radios()[1] // radios 0 and 2 both lock on
	frame := (&Frame{Type: FrameData, Dst: BroadcastAddr, Src: a.Addr()}).Encode()
	a.Transmit(frame)
	eng.Schedule(LoadTime(len(frame))+AirTime(len(frame))/2, func() { ch.hot[0].lockNext = 0 })
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "phy: invariant") {
			t.Fatalf("recovered %q, want the locked-list check's panic", msg)
		}
	}()
	eng.RunFor(sim.Second)
	t.Fatal("a receiver missing from the locked list went unnoticed")
}
