package phy

import (
	"fmt"

	"tcplp/internal/sim"
)

// State is the radio power/activity state.
type State uint8

// Radio states. Only Sleep is a low-power state; the paper's duty-cycle
// measurements (§9.2) count all non-sleep time.
const (
	StateSleep State = iota
	StateListen
	StateRx
	StateTx
)

func (s State) String() string {
	switch s {
	case StateSleep:
		return "sleep"
	case StateListen:
		return "listen"
	case StateRx:
		return "rx"
	case StateTx:
		return "tx"
	}
	return fmt.Sprintf("state%d", uint8(s))
}

// Radio is one node's transceiver. It is half-duplex: while transmitting
// it cannot receive, which is the constraint behind the B/2 and B/3
// multihop bandwidth bounds of §7.2.
//
// The radio is deliberately dumb: CSMA, ACKs, and retries live in the MAC
// (package mac), mirroring the paper's move of those functions into
// software to avoid the AT86RF233's deaf-listening behaviour (§4).
type Radio struct {
	eng  *sim.Engine
	ch   *Channel
	id   int
	idx  int32 // registration index on the channel; the radio's state is ch.hot[idx]
	addr Addr
	pos  Point

	// who senses this radio, as of channel version nbrsVersion
	// (Channel.neighbors)
	nbrs        []nbrEntry
	nbrsVersion uint64

	energySince sim.Time

	// transmit closures, built by the radio's first transmission (most of
	// a city only ever listens), + their per-transmission arguments; a
	// radio has at most one frame in flight, so these are reused.
	txBeginFn func()
	txDoneFn  func()
	txData    []byte
	txAir     sim.Duration
	// txDone is the pending event of the frame in flight's txDoneFn, to
	// which beginTx attaches the frame's end (sim.Engine.Then).
	txDone *sim.Event

	// NoiseOnly marks an interference source: its transmissions corrupt
	// receptions and trip CCAs but are never decoded by anyone.
	NoiseOnly bool

	// TxJID is the journey packet id of the frame about to be
	// transmitted (0 = untagged). The MAC sets it immediately before
	// Transmit/TransmitLoaded; the channel snapshots it into the
	// in-flight transmission. Simulator metadata only — never on the
	// wire.
	TxJID int64
	// RxJID is the journey packet id of the frame being handed to
	// OnReceive, valid only for the duration of that callback (like
	// rxBuf).
	RxJID int64

	// OnReceive is invoked with the raw frame bytes of each successfully
	// decoded frame. The slice is the radio's receive buffer: it is valid
	// only for the duration of the callback and is overwritten by the next
	// reception, like a real transceiver's frame buffer. Callers that need
	// the bytes longer must copy them.
	OnReceive func(data []byte)
	// rxBuf backs the slices handed to OnReceive.
	rxBuf [MaxPHYPayload]byte
	// OnTxDone is invoked when a transmission completes (frame fully on
	// air and trailing SPI work done).
	OnTxDone func()

	framesSent uint64
}

// hot returns the radio's entry in the channel's dense state array. The
// pointer is good until the next AddRadio.
func (r *Radio) hot() *radioHot { return &r.ch.hot[r.idx] }

// ID returns the radio's small integer identifier.
func (r *Radio) ID() int { return r.id }

// Addr returns the radio's EUI-64 address.
func (r *Radio) Addr() Addr { return r.addr }

// SetPos moves the radio, invalidating all cached neighbor sets. Frames
// already in flight keep the sensing snapshot taken when they hit the air.
func (r *Radio) SetPos(pos Point) {
	r.pos = pos
	r.ch.version++
}

// State returns the current radio state.
func (r *Radio) State() State { return r.hot().state }

// FramesSent returns the number of frames this radio has put on air.
func (r *Radio) FramesSent() uint64 { return r.framesSent }

// FramesReceived returns the number of frames the radio decoded, whether
// or not its address filter then handed them to OnReceive.
func (r *Radio) FramesReceived() uint64 { return r.hot().framesRecv }

// ReceptionsDropped counts receptions lost to collisions, noise, or state
// changes mid-frame.
func (r *Radio) ReceptionsDropped() uint64 { return r.hot().rxDropped }

// TimeIn returns the cumulative time spent in state s.
func (r *Radio) TimeIn(s State) sim.Duration {
	return r.hot().timeIn(s, r.eng.Now())
}

// DutyCycle returns the fraction of time since the last ResetEnergy (or
// since start) that the radio was not asleep — the paper's "radio duty
// cycle" metric (§9.2).
func (r *Radio) DutyCycle() float64 {
	total := r.eng.Now().Sub(r.energySince)
	if total <= 0 {
		return 0
	}
	awake := r.TimeIn(StateListen) + r.TimeIn(StateRx) + r.TimeIn(StateTx)
	return float64(awake) / float64(total)
}

// ResetEnergy zeroes the per-state accumulators (used to measure duty
// cycle over a window).
func (r *Radio) ResetEnergy() {
	h, now := r.hot(), r.eng.Now()
	h.acc = [4]sim.Duration{}
	h.acc[h.state] = -sim.Duration(now)
	r.energySince = now
}

// Sleeping reports whether the radio is in its low-power state.
func (r *Radio) Sleeping() bool { return r.hot().state == StateSleep }

// Transmitting reports whether a transmission is in progress.
func (r *Radio) Transmitting() bool { return r.hot().state == StateTx }

// SetListen turns the receiver on (true) or puts the radio to sleep
// (false). Turning the receiver off mid-reception drops the frame; the
// call is ignored while transmitting (the MAC never does this).
func (r *Radio) SetListen(on bool) {
	h := r.hot()
	if h.state == StateTx {
		return
	}
	if on {
		if h.state == StateSleep {
			h.setState(StateListen, r.eng.Now())
		}
		return
	}
	h.abortRx()
	h.setState(StateSleep, r.eng.Now())
}

// SetAddressFilter switches the radio's address recognition on or off. A
// filtering radio still decodes every frame it locks onto (state, PER
// draw, FramesReceived, trace events) but hands OnReceive only well-formed
// frames addressed to it or to broadcast, and ACKs while SetAckWait is
// on. A MAC switches it on; a raw radio is promiscuous.
func (r *Radio) SetAddressFilter(on bool) { r.ch.setFilter(r, on) }

// SetAckWait tells a filtering radio whether its MAC is awaiting an
// immediate ACK. ACK frames carry no address, so this is what stands in
// for the address match: off, the radio keeps ACKs to itself.
func (r *Radio) SetAckWait(on bool) { r.hot().ackWait = on }

// AckWait reports the bit SetAckWait last set.
func (r *Radio) AckWait() bool { return r.hot().ackWait }

// ChannelClear performs a clear-channel assessment from this radio's
// vantage point: the channel is busy if any frame is on air from a node
// within sense range, or if this radio is mid-reception.
func (r *Radio) ChannelClear() bool {
	if r.hot().state == StateRx {
		return false
	}
	return !r.ch.busyAt(r)
}

// Transmit puts a frame on air after first paying the SPI load time for
// the whole frame (node busy, channel idle). It is the one-shot path used
// by noise sources and simple tests; the MAC instead pre-loads the frame
// buffer once (LoadTime) and calls TransmitLoaded after each CCA so that
// the CCA-to-air gap is only the radio turnaround, as on real hardware.
func (r *Radio) Transmit(data []byte) {
	r.transmitAfter(data, LoadTime(len(data)))
}

// TransmitLoaded puts an already-loaded frame on air after the RX→TX
// turnaround time. The radio is busy (cannot receive) from this call
// until the frame leaves the air. data must stay unchanged until
// OnTxDone; the channel keeps its own copy for the receivers, so the
// caller may overwrite the buffer from inside that callback.
func (r *Radio) TransmitLoaded(data []byte) {
	r.transmitAfter(data, TurnaroundTime)
}

func (r *Radio) transmitAfter(data []byte, lead sim.Duration) {
	h := r.hot()
	if h.state == StateTx {
		panic("phy: Transmit while already transmitting")
	}
	if len(data) > MaxPHYPayload {
		panic("phy: oversized frame")
	}
	h.abortRx()
	h.setState(StateTx, r.eng.Now())
	air := AirTime(len(data))
	r.framesSent++
	r.txData, r.txAir = data, air
	if r.txBeginFn == nil {
		r.txBeginFn = func() { r.ch.beginTx(r, r.txData, r.txAir) }
		r.txDoneFn = func() {
			r.hot().setState(StateListen, r.eng.Now())
			if r.OnTxDone != nil {
				r.OnTxDone()
			}
		}
	}
	r.eng.Schedule(lead, r.txBeginFn)
	r.txDone = r.eng.Schedule(lead+air, r.txDoneFn)
}
