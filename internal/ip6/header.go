package ip6

import (
	"encoding/binary"
	"errors"
)

// Protocol numbers.
const (
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoNone = 59
)

// ECN codepoints (RFC 3168), the low two bits of the traffic class.
type ECN uint8

// ECN values.
const (
	NotECT ECN = 0
	ECT1   ECN = 1
	ECT0   ECN = 2
	CE     ECN = 3
)

// HeaderLen is the fixed IPv6 header length.
const HeaderLen = 40

// DefaultHopLimit is the hop limit applied to locally originated packets.
const DefaultHopLimit = 64

// Header is a parsed IPv6 fixed header.
type Header struct {
	TrafficClass uint8
	FlowLabel    uint32 // 20 bits
	PayloadLen   uint16
	NextHeader   uint8
	HopLimit     uint8
	Src, Dst     Addr
}

// ECN returns the ECN codepoint from the traffic class.
func (h *Header) ECN() ECN { return ECN(h.TrafficClass & 0x3) }

// SetECN replaces the ECN codepoint in the traffic class.
func (h *Header) SetECN(e ECN) { h.TrafficClass = h.TrafficClass&^0x3 | uint8(e) }

// Packet is an IPv6 packet: header plus upper-layer payload. PayloadLen
// is maintained by AppendEncode.
type Packet struct {
	Header
	Payload []byte

	// JID is the journey packet id for causal tracing (0 = untagged).
	// It rides alongside the packet as simulator metadata — AppendEncode never
	// serializes it and Decode leaves it zero — so tagging a packet can
	// never change wire bytes, air time, or any RNG draw.
	JID int64
}

// AppendEncode serializes the packet onto dst, setting PayloadLen from
// the payload, and returns the extended slice. Callers that encode
// repeatedly can pass a reused buffer (dst[:0]) to avoid a fresh
// allocation per packet.
func (p *Packet) AppendEncode(dst []byte) []byte {
	p.PayloadLen = uint16(len(p.Payload))
	off := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	b := dst[off:]
	b[0] = 6<<4 | p.TrafficClass>>4
	b[1] = p.TrafficClass<<4 | uint8(p.FlowLabel>>16)
	binary.BigEndian.PutUint16(b[2:], uint16(p.FlowLabel))
	binary.BigEndian.PutUint16(b[4:], p.PayloadLen)
	b[6] = p.NextHeader
	b[7] = p.HopLimit
	copy(b[8:24], p.Src[:])
	copy(b[24:40], p.Dst[:])
	return append(dst, p.Payload...)
}

// Decode errors.
var (
	ErrTruncated  = errors.New("ip6: truncated packet")
	ErrNotIPv6    = errors.New("ip6: version is not 6")
	ErrBadPayload = errors.New("ip6: payload length mismatch")
)

// Decode parses a serialized IPv6 packet. The payload is copied.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func Decode(b []byte) (*Packet, error) {
	if len(b) < HeaderLen {
		return nil, ErrTruncated
	}
	if b[0]>>4 != 6 {
		return nil, ErrNotIPv6
	}
	p := &Packet{}
	p.TrafficClass = b[0]<<4 | b[1]>>4
	p.FlowLabel = uint32(b[1]&0xf)<<16 | uint32(binary.BigEndian.Uint16(b[2:]))
	p.PayloadLen = binary.BigEndian.Uint16(b[4:])
	p.NextHeader = b[6]
	p.HopLimit = b[7]
	copy(p.Src[:], b[8:24])
	copy(p.Dst[:], b[24:40])
	if int(p.PayloadLen) != len(b)-HeaderLen {
		return nil, ErrBadPayload
	}
	p.Payload = append([]byte(nil), b[HeaderLen:]...)
	return p, nil
}
