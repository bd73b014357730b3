// Package phy simulates the IEEE 802.15.4 physical and lower-MAC layer:
// frame encoding, half-duplex radios with sleep/listen/transmit states,
// and a shared channel with receiver-side collision resolution.
//
// Timing follows the paper's measurements on the AT86RF233 (§6.4): a byte
// takes 32 µs on air at 250 kb/s, and moving a byte over SPI to the radio
// costs about the same again, so a full 127-byte frame occupies the node
// for ≈8.2 ms while occupying the channel for only ≈4.3 ms.
//
// # Hot state and frame filter
//
// A transmission costs two walks of its sender's sensed neighbors and one
// of the radios that locked onto it. Frame start walks every sensed
// neighbor: it raises the neighbor's sensed energy, corrupts a reception
// in progress, and locks a lone listener that can decode the frame, linking
// it onto the frame's locked list in neighbor order. Frame end walks the
// same snapshot once more to drop the energy, then resolves receptions
// over the locked list alone: a metro radio senses some 85 neighbors per
// frame, about half of them lock on, and fewer than one wants the frame.
// The list is exact because only frame start sets a reception's serial,
// and a locked radio that slept or transmitted mid-frame has cleared it
// (-tags invariants checks the list against the full snapshot walk). The
// frame's end is the continuation of the sender's txDone event
// (sim.Engine.Then), not a queue entry of its own.
//
// So what those loops touch per radio decides what a dense network costs
// to simulate. Everything they read or write lives in one radioHot entry
// per radio, in a channel-owned slice indexed by registration index: the
// radio's state and its per-state time accumulators, the count of sensed
// on-air transmissions, the reception in progress (the transmission's
// serial number, not a pointer to it) with its corrupted flag and its link
// in the locked list, the frames-received and receptions-dropped counters,
// and the two filter bits below. An entry is 64 bytes and pointer-free —
// one cache line per sensed neighbor, nothing for the collector to scan or
// write-barrier — and Radio's accessors (State, TimeIn, DutyCycle,
// ChannelClear, FramesReceived, …) read through it. Channel.Reserve sizes
// the slice once when the topology is known. What only the radio's owner
// touches (position, callbacks, the neighbor list of its own
// transmissions) stays in Radio — the Radios of a reserved topology are
// one slab too, and a radio's transmit closures and neighbor list
// (collected in channel scratch, kept at its exact size, four bytes a
// neighbor: the index, complemented when the neighbor can decode) are
// made by its first transmission: a radio that only ever listens, most of
// a city, is 192 bytes of that slab and its cache line here. The 127-byte
// receive buffer is the channel's, one for all radios: the engine runs
// one callback at a time, and the bytes a radio's OnReceive is handed are
// valid only for that call.
//
// Who senses whom is asked of the Propagation model once per topology, not
// per frame: Channel.neighbors builds a radio's list on its first
// transmission after a radio was added or moved, asking a *UnitDisk about
// the radios a CellGrid (the repo's one uniform grid, shared with package
// mesh) finds in the 3×3 cells around it and any other model about every
// radio. Every frame, under every model, walks that list.
//
// Like a real 802.15.4 transceiver, a radio can recognise addresses
// (Radio.SetAddressFilter; package mac switches it on, a raw radio is
// promiscuous). The channel reads a frame's header once per transmission
// (PeekHeader) and a filtering radio has the frame copied into the
// receive buffer and calls OnReceive only if the frame is well formed and
// addressed to it or to broadcast, or is an ACK — ACKs carry no address —
// while its MAC awaits one (Radio.SetAckWait). The filter skips that copy
// and that call and nothing else. Every radio that locked onto the frame
// still returns from Rx to Listen at the same instant, still takes its PER
// draw, in neighbor order and before the filter is consulted, still
// counts the frame in FramesReceived ("decoded by the radio", not
// "handed up") or ReceptionsDropped, and still emits its PhyCollision or
// PhyRxDrop trace event: state transitions, RNG draws, counters and trace
// events are never skipped. The MAC keeps its own header and ACK checks,
// so it is the authority and the filter is only the shortcut: a run with
// the filter switched off on every radio produces the same Result
// (TestAddressFilterInvisible in package scenario), and a radio whose
// address cannot be entered in the channel's id table simply stays
// promiscuous.
package phy

import (
	"encoding/binary"
	"fmt"
)

// Addr is an EUI-64 extended address, the 8-byte long-address format of
// IEEE 802.15.4. The paper's Table 6 23-byte MAC header corresponds to
// long addressing, which is what 6LoWPAN mesh networks typically use.
type Addr [8]byte

// BroadcastAddr is the all-ones broadcast address.
var BroadcastAddr = Addr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// AddrFromID builds a deterministic address from a small node identifier,
// convenient for tests and topology construction.
func AddrFromID(id int) Addr {
	var a Addr
	binary.BigEndian.PutUint64(a[:], uint64(id)+1)
	return a
}

// ID recovers the node identifier from an address built by AddrFromID.
func (a Addr) ID() int {
	return int(binary.BigEndian.Uint64(a[:])) - 1
}

// IsBroadcast reports whether a is the broadcast address.
func (a Addr) IsBroadcast() bool { return a == BroadcastAddr }

func (a Addr) String() string {
	if a.IsBroadcast() {
		return "ff:*"
	}
	return fmt.Sprintf("%02x%02x:%02x%02x:%02x%02x:%02x%02x",
		a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7])
}
