package phy

import (
	"encoding/binary"
	"errors"
	"fmt"

	"tcplp/internal/sim"
)

// FrameType is the 802.15.4 frame type field.
type FrameType uint8

// Frame types (FCF bits 0-2).
const (
	FrameBeacon  FrameType = 0
	FrameData    FrameType = 1
	FrameAck     FrameType = 2
	FrameCommand FrameType = 3
)

func (t FrameType) String() string {
	switch t {
	case FrameBeacon:
		return "beacon"
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameCommand:
		return "command"
	}
	return fmt.Sprintf("type%d", uint8(t))
}

// CommandID identifies a MAC command frame.
type CommandID uint8

// DataRequest is the MAC command a sleepy end device sends to poll its
// parent for queued downstream frames (Thread "data request", §3.2).
const DataRequest CommandID = 0x04

// PHY and framing constants.
const (
	// MaxPHYPayload is aMaxPHYPacketSize: the largest frame the PHY can
	// carry, including the MAC header and FCS (Table 5: 127 B).
	MaxPHYPayload = 127

	// DataHeaderLen is the MAC header length of a long-addressed data
	// frame: FCF(2) + seq(1) + dst PAN(2) + dst(8) + src(8) = 21 bytes.
	DataHeaderLen = 21

	// FCSLen is the length of the trailing frame check sequence.
	FCSLen = 2

	// FrameOverhead is header+FCS: the paper's Table 6 lists 23 B of
	// IEEE 802.15.4 overhead per frame.
	FrameOverhead = DataHeaderLen + FCSLen

	// MaxMACPayload is the usable payload of a maximal data frame.
	MaxMACPayload = MaxPHYPayload - FrameOverhead

	// AckFrameLen is the length of an immediate acknowledgment frame:
	// FCF(2) + seq(1) + FCS(2).
	AckFrameLen = 5
)

// Timing constants (250 kb/s O-QPSK PHY, AT86RF233 figures from §6.4).
const (
	// ByteAirTime is the on-air time of one byte at 250 kb/s.
	ByteAirTime = 32 * sim.Microsecond

	// SHRDuration is the synchronization header (preamble + SFD + PHR,
	// 6 byte-times) that precedes every frame on air.
	SHRDuration = 6 * ByteAirTime

	// SPIBytTime models the microcontroller↔radio SPI transfer cost per
	// byte. The paper measures a full frame at 8.2 ms node-occupancy vs
	// 4.1 ms airtime; the difference is SPI and driver overhead, which
	// halves the effective link bandwidth to ≈125 kb/s (§6.2 footnote).
	SPIByteTime = 32 * sim.Microsecond

	// TurnaroundTime (aTurnaroundTime) is the RX↔TX switch time, which
	// is also the gap before an immediate ACK is sent.
	TurnaroundTime = 192 * sim.Microsecond

	// CCATime is the duration of one clear-channel assessment (8 symbol
	// periods).
	CCATime = 128 * sim.Microsecond

	// UnitBackoff is aUnitBackoffPeriod, the CSMA backoff quantum.
	UnitBackoff = 320 * sim.Microsecond

	// AckWait is how long a transmitter waits for an immediate ACK
	// (aTurnaround + ACK air time + margin ≈ macAckWaitDuration).
	AckWait = 864 * sim.Microsecond
)

// AirTime returns the channel-occupancy time of a frame of n total bytes
// (header+payload+FCS).
func AirTime(n int) sim.Duration {
	return SHRDuration + sim.Duration(n)*ByteAirTime
}

// LoadTime returns the SPI/driver time to move a frame of n bytes between
// the microcontroller and the radio. The node is busy, the channel is not.
func LoadTime(n int) sim.Duration {
	return sim.Duration(n) * SPIByteTime
}

// Frame is a parsed IEEE 802.15.4 MAC frame. Data and command frames use
// long (EUI-64) addressing with PAN ID compression; ACK frames carry only
// a sequence number.
type Frame struct {
	Type         FrameType
	Seq          uint8
	PAN          uint16
	Dst, Src     Addr
	AckRequest   bool
	FramePending bool
	Command      CommandID // valid when Type == FrameCommand
	Payload      []byte

	// J is the journey packet id of the datagram the frame carries
	// (0 = untagged). Simulator metadata: decode zeroes it and the MAC
	// refills it from the radio's RxJID side channel.
	J int64
}

// FCF bit layout (IEEE 802.15.4-2006 §7.2.1.1).
const (
	fcfTypeMask    = 0x0007
	fcfPending     = 0x0010
	fcfAckRequest  = 0x0020
	fcfPANCompress = 0x0040
	fcfDstExtended = 0x0c00 // dst addressing mode = 3 (extended)
	fcfSrcExtended = 0xc000 // src addressing mode = 3 (extended)
)

// WireLen returns the encoded length of the frame including FCS.
func (f *Frame) WireLen() int {
	if f.Type == FrameAck {
		return AckFrameLen
	}
	n := DataHeaderLen + len(f.Payload) + FCSLen
	if f.Type == FrameCommand {
		n++ // command identifier byte
	}
	return n
}

// Encode serializes the frame to wire format in a fresh slice. It panics
// if the frame exceeds MaxPHYPayload, which indicates a bug in the
// caller's fragmentation logic rather than a runtime condition.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func (f *Frame) Encode() []byte {
	return f.AppendEncode(make([]byte, 0, f.WireLen()))
}

// AppendEncode appends the frame's wire format to dst and returns the
// extended slice; with WireLen bytes of spare capacity in dst it does
// not allocate (the MAC encodes into the buffer inside its transmit
// job). It panics on an oversized frame, as Encode does.
func (f *Frame) AppendEncode(dst []byte) []byte {
	if n := f.WireLen(); n > MaxPHYPayload {
		panic(fmt.Sprintf("phy: frame of %d bytes exceeds %d-byte PHY limit", n, MaxPHYPayload))
	}
	b := dst
	fcf := uint16(f.Type) & fcfTypeMask
	if f.FramePending {
		fcf |= fcfPending
	}
	if f.AckRequest {
		fcf |= fcfAckRequest
	}
	if f.Type != FrameAck {
		fcf |= fcfPANCompress | fcfDstExtended | fcfSrcExtended
	}
	b = binary.LittleEndian.AppendUint16(b, fcf)
	b = append(b, f.Seq)
	if f.Type != FrameAck {
		b = binary.LittleEndian.AppendUint16(b, f.PAN)
		b = append(b, f.Dst[:]...)
		b = append(b, f.Src[:]...)
		if f.Type == FrameCommand {
			b = append(b, byte(f.Command))
		}
		b = append(b, f.Payload...)
	}
	// The FCS is carried as zeros; corruption is modelled at the channel,
	// not by checksum mismatch.
	b = append(b, 0, 0)
	return b
}

// Decode errors.
var (
	ErrFrameTooShort = errors.New("phy: frame too short")
	ErrFrameTooLong  = errors.New("phy: frame exceeds PHY limit")
	ErrBadAddressing = errors.New("phy: unsupported addressing mode")
)

// DecodeFrameInto parses a wire-format frame into f, overwriting every
// field, without allocating: f.Payload aliases b and is valid only as
// long as b is. The MAC's receive path reuses one Frame per radio this
// way; consumers that keep payload bytes past the delivery callback must
// copy them (the 6LoWPAN reassembler and fragment forwarder both do).
func DecodeFrameInto(f *Frame, b []byte) error {
	if len(b) > MaxPHYPayload {
		return ErrFrameTooLong
	}
	if len(b) < AckFrameLen {
		return ErrFrameTooShort
	}
	fcf := binary.LittleEndian.Uint16(b[:2])
	*f = Frame{
		Type:         FrameType(fcf & fcfTypeMask),
		Seq:          b[2],
		AckRequest:   fcf&fcfAckRequest != 0,
		FramePending: fcf&fcfPending != 0,
	}
	if f.Type == FrameAck {
		return nil
	}
	if fcf&fcfDstExtended != fcfDstExtended || fcf&fcfSrcExtended != fcfSrcExtended {
		return ErrBadAddressing
	}
	if len(b) < DataHeaderLen+FCSLen {
		return ErrFrameTooShort
	}
	f.PAN = binary.LittleEndian.Uint16(b[3:5])
	copy(f.Dst[:], b[5:13])
	copy(f.Src[:], b[13:21])
	rest := b[21 : len(b)-FCSLen]
	if f.Type == FrameCommand {
		if len(rest) < 1 {
			return ErrFrameTooShort
		}
		f.Command = CommandID(rest[0])
		rest = rest[1:]
	}
	if len(rest) > 0 {
		f.Payload = rest
	}
	return nil
}

// PeekHeader reads the frame type and destination address straight from
// wire bytes, with the length and addressing checks of DecodeFrameInto:
// it returns the error DecodeFrameInto would, and otherwise the Type and
// Dst DecodeFrameInto would fill in (Dst is zero for an ACK, which
// carries no addresses). The channel's frame filter reads it once per
// transmission, and a MAC uses it to discard overheard frames addressed to
// someone else without decoding them.
func PeekHeader(b []byte) (FrameType, Addr, error) {
	var dst Addr
	if len(b) > MaxPHYPayload {
		return 0, dst, ErrFrameTooLong
	}
	if len(b) < AckFrameLen {
		return 0, dst, ErrFrameTooShort
	}
	fcf := binary.LittleEndian.Uint16(b[:2])
	t := FrameType(fcf & fcfTypeMask)
	if t == FrameAck {
		return t, dst, nil
	}
	if fcf&fcfDstExtended != fcfDstExtended || fcf&fcfSrcExtended != fcfSrcExtended {
		return t, dst, ErrBadAddressing
	}
	minLen := DataHeaderLen + FCSLen
	if t == FrameCommand {
		minLen++ // command identifier byte
	}
	if len(b) < minLen {
		return t, dst, ErrFrameTooShort
	}
	copy(dst[:], b[5:13])
	return t, dst, nil
}

// AckFor builds the immediate acknowledgment for a received frame,
// carrying the frame-pending bit used by indirect (duty-cycled) delivery.
func AckFor(seq uint8, pending bool) *Frame {
	return &Frame{Type: FrameAck, Seq: seq, FramePending: pending}
}
