package mac

import (
	"testing"

	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// FuzzFrameDstAgreesWithMac: for arbitrary bytes on air, and a MAC that
// is or is not awaiting an ACK, the radio's address filter
// (phy.Channel.frameDst + radioHot.wants, reached here through a real
// transmission) hands the frame up exactly when Mac.keeps would not
// discard it. Dormancy (package stack) leans on that agreement: a node
// whose radio withholds every frame needs no MAC to discard them.
// Seeds: one frame of each type to this node, to another and to
// broadcast; corpus: an ACK with trailing bytes while awaited, a data
// frame cut inside its destination, and one for the all-zero address
// (node id −1).
func FuzzFrameDstAgreesWithMac(f *testing.F) {
	me, other := phy.AddrFromID(1), phy.AddrFromID(9)
	payload := []byte("payload bytes")
	for _, fr := range []*phy.Frame{
		{Type: phy.FrameData, Seq: 1, Dst: me, Src: other, AckRequest: true, Payload: payload},
		{Type: phy.FrameData, Seq: 2, Dst: phy.BroadcastAddr, Src: other, Payload: payload},
		{Type: phy.FrameData, Seq: 3, Dst: other, Src: me},
		{Type: phy.FrameData, Seq: 4, Dst: other, Src: me, Payload: make([]byte, phy.MaxMACPayload)},
		{Type: phy.FrameCommand, Seq: 5, Dst: me, Src: other, Command: phy.DataRequest, AckRequest: true},
		{Type: phy.FrameBeacon, Seq: 6, Dst: me, Src: other, Payload: payload},
		phy.AckFor(7, false),
		phy.AckFor(8, true),
	} {
		f.Add(fr.Encode(), false)
		f.Add(fr.Encode(), true)
	}
	f.Fuzz(func(t *testing.T, b []byte, ackWait bool) {
		if len(b) > phy.MaxPHYPayload {
			t.Skip("cannot be put on air")
		}
		eng := sim.NewEngine(1)
		ch := phy.NewChannel(eng, phy.NewUnitDisk(2, 2))
		tx := ch.AddRadio(2, phy.Point{})
		m := New(eng, ch.AddRadio(1, phy.Point{X: 1}), DefaultParams())
		if ackWait {
			// What txDone does after a frame that asked for an ACK.
			m.arm(stepAckTimeout, sim.Second)
			m.radio.SetAckWait(true)
		}
		var handed, kept bool
		m.radio.OnReceive = func(data []byte) {
			handed, kept = true, m.keeps(data)
		}
		tx.Transmit(b)
		eng.RunFor(100 * sim.Millisecond)
		if m.radio.FramesReceived() != 1 {
			t.Fatal("the radio did not decode the frame")
		}
		if want := m.keeps(b); handed != want || (handed && !kept) {
			t.Fatalf("radio handed the frame up: %v; MAC keeps it: %v (at delivery: %v)", handed, want, kept)
		}
	})
}
