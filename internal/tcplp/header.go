package tcplp

import (
	"encoding/binary"
	"errors"

	"tcplp/internal/ip6"
)

// Flags is the TCP flag byte (plus the two ECN flags).
type Flags uint16

// TCP header flags.
const (
	FlagFIN Flags = 1 << 0
	FlagSYN Flags = 1 << 1
	FlagRST Flags = 1 << 2
	FlagPSH Flags = 1 << 3
	FlagACK Flags = 1 << 4
	FlagURG Flags = 1 << 5
	FlagECE Flags = 1 << 6
	FlagCWR Flags = 1 << 7
)

// Has reports whether all flags in m are set.
func (f Flags) Has(m Flags) bool { return f&m == m }

func (f Flags) String() string {
	names := []struct {
		bit  Flags
		name byte
	}{
		{FlagFIN, 'F'}, {FlagSYN, 'S'}, {FlagRST, 'R'}, {FlagPSH, 'P'},
		{FlagACK, 'A'}, {FlagURG, 'U'}, {FlagECE, 'E'}, {FlagCWR, 'C'},
	}
	out := make([]byte, 0, 8)
	for _, n := range names {
		if f.Has(n.bit) {
			out = append(out, n.name)
		}
	}
	if len(out) == 0 {
		return "."
	}
	return string(out)
}

// Option kinds.
const (
	optEnd           = 0
	optNOP           = 1
	optMSS           = 2
	optWindowScale   = 3
	optSACKPermitted = 4
	optSACK          = 5
	optTimestamps    = 8
)

// BaseHeaderLen is the TCP header length without options.
const BaseHeaderLen = 20

// MaxSACKBlocks is the most SACK blocks a segment can carry alongside
// timestamps.
const MaxSACKBlocks = 3

// SACKBlock is one selective-acknowledgment range [Start, End).
type SACKBlock struct {
	Start, End Seq
}

// Segment is a parsed TCP segment. Option presence is explicit so the
// encoder emits exactly the options requested (Table 1's feature knobs).
type Segment struct {
	SrcPort, DstPort uint16
	SeqNum           Seq
	AckNum           Seq
	Flags            Flags
	Window           uint16

	// Options.
	MSS           uint16 // SYN only; 0 means absent
	SACKPermitted bool   // SYN only
	HasTS         bool
	TSVal, TSEcr  uint32
	SACKBlocks    []SACKBlock

	Payload []byte

	// sackStore backs SACKBlocks after DecodeSegmentInto. Four, not
	// MaxSACKBlocks: the 40 option bytes of a header without timestamps
	// carry (40−2)/8 = 4 blocks, and the decoder accepts what the wire
	// can hold. A Segment decoded into must not be copied by value (the
	// copy's SACKBlocks would alias the original's store).
	sackStore [4]SACKBlock

	// JID is the journey packet id (0 = untagged), simulator metadata
	// threaded into ip6.Packet.JID on send and copied back from it on
	// receive. Never encoded into wire bytes.
	JID int64
}

// Len returns the sequence-space length of the segment (payload plus SYN
// and FIN).
func (s *Segment) Len() int {
	n := len(s.Payload)
	if s.Flags.Has(FlagSYN) {
		n++
	}
	if s.Flags.Has(FlagFIN) {
		n++
	}
	return n
}

func (s *Segment) optionLen() int {
	n := 0
	if s.MSS != 0 {
		n += 4
	}
	if s.SACKPermitted {
		n += 2
	}
	if s.HasTS {
		n += 10
	}
	if len(s.SACKBlocks) > 0 {
		n += 2 + 8*len(s.SACKBlocks)
	}
	return (n + 3) &^ 3 // pad to 32-bit boundary
}

// HeaderLen returns the encoded header length including options.
func (s *Segment) HeaderLen() int { return BaseHeaderLen + s.optionLen() }

// WireLen returns the total encoded segment length.
func (s *Segment) WireLen() int { return s.HeaderLen() + len(s.Payload) }

// AppendEncode serializes the segment, with the checksum computed over
// the IPv6-style pseudo header for src/dst, into buf's backing array
// when it is large enough (allocating otherwise — a nil buf gives a
// fresh slice) and returns the encoded slice, so callers that recycle
// wire buffers encode without allocating.
func (s *Segment) AppendEncode(buf []byte, src, dst ip6.Addr) []byte {
	hl := s.HeaderLen()
	n := hl + len(s.Payload)
	var b []byte
	if cap(buf) >= n {
		b = buf[:n]
	} else {
		b = make([]byte, n)
	}
	binary.BigEndian.PutUint16(b[0:], s.SrcPort)
	binary.BigEndian.PutUint16(b[2:], s.DstPort)
	binary.BigEndian.PutUint32(b[4:], uint32(s.SeqNum))
	binary.BigEndian.PutUint32(b[8:], uint32(s.AckNum))
	b[12] = byte(hl/4) << 4
	b[13] = byte(s.Flags & 0xff)
	binary.BigEndian.PutUint16(b[14:], s.Window)
	// The checksum at b[16:18] is summed over the segment with the field
	// itself zero, and the urgent pointer is always zero: the urgent
	// mechanism is deliberately omitted (§4.1, RFC 6093). A recycled
	// buffer holds stale bytes in both, so zero them explicitly.
	b[16], b[17] = 0, 0
	b[18], b[19] = 0, 0
	i := BaseHeaderLen
	if s.MSS != 0 {
		b[i], b[i+1] = optMSS, 4
		binary.BigEndian.PutUint16(b[i+2:], s.MSS)
		i += 4
	}
	if s.SACKPermitted {
		b[i], b[i+1] = optSACKPermitted, 2
		i += 2
	}
	if s.HasTS {
		b[i], b[i+1] = optTimestamps, 10
		binary.BigEndian.PutUint32(b[i+2:], s.TSVal)
		binary.BigEndian.PutUint32(b[i+6:], s.TSEcr)
		i += 10
	}
	if len(s.SACKBlocks) > 0 {
		b[i], b[i+1] = optSACK, byte(2+8*len(s.SACKBlocks))
		i += 2
		for _, blk := range s.SACKBlocks {
			binary.BigEndian.PutUint32(b[i:], uint32(blk.Start))
			binary.BigEndian.PutUint32(b[i+4:], uint32(blk.End))
			i += 8
		}
	}
	for i < hl {
		b[i] = optNOP
		i++
	}
	if len(s.Payload) > 0 && &b[hl] != &s.Payload[0] { // else already in place (sendData)
		copy(b[hl:], s.Payload)
	}
	binary.BigEndian.PutUint16(b[16:], Checksum(src, dst, b))
	return b
}

// Decode errors.
var (
	ErrSegmentTooShort = errors.New("tcplp: segment too short")
	ErrBadOption       = errors.New("tcplp: malformed TCP option")
	ErrBadChecksum     = errors.New("tcplp: bad checksum")
)

// DecodeSegmentInto parses a TCP segment into s, overwriting every
// field, and verifies its checksum against the pseudo header. Nothing
// is copied: s.Payload aliases b, so it is valid exactly as long as b
// is, and s.SACKBlocks lives inside s. On error s is left partly
// written.
//
// Because s.SACKBlocks points into s, the compiler keeps any Segment
// passed here on the heap; a caller on a hot path reuses one (Stack.Input
// takes its from a free list).
func DecodeSegmentInto(s *Segment, src, dst ip6.Addr, b []byte) error {
	if len(b) < BaseHeaderLen {
		return ErrSegmentTooShort
	}
	if Checksum(src, dst, b) != 0 {
		return ErrBadChecksum
	}
	hl := int(b[12]>>4) * 4
	if hl < BaseHeaderLen || hl > len(b) {
		return ErrSegmentTooShort
	}
	*s = Segment{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		SeqNum:  Seq(binary.BigEndian.Uint32(b[4:])),
		AckNum:  Seq(binary.BigEndian.Uint32(b[8:])),
		Flags:   Flags(b[13]),
		Window:  binary.BigEndian.Uint16(b[14:]),
	}
	opts := b[BaseHeaderLen:hl]
	for len(opts) > 0 {
		switch opts[0] {
		case optEnd:
			opts = nil
			continue
		case optNOP:
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
			return ErrBadOption
		}
		l := int(opts[1])
		switch opts[0] {
		case optMSS:
			if l != 4 {
				return ErrBadOption
			}
			s.MSS = binary.BigEndian.Uint16(opts[2:])
		case optSACKPermitted:
			if l != 2 {
				return ErrBadOption
			}
			s.SACKPermitted = true
		case optTimestamps:
			if l != 10 {
				return ErrBadOption
			}
			s.HasTS = true
			s.TSVal = binary.BigEndian.Uint32(opts[2:])
			s.TSEcr = binary.BigEndian.Uint32(opts[6:])
		case optSACK:
			if (l-2)%8 != 0 {
				return ErrBadOption
			}
			if s.SACKBlocks == nil {
				s.SACKBlocks = s.sackStore[:0]
			}
			for j := 2; j < l; j += 8 {
				s.SACKBlocks = append(s.SACKBlocks, SACKBlock{
					Start: Seq(binary.BigEndian.Uint32(opts[j:])),
					End:   Seq(binary.BigEndian.Uint32(opts[j+4:])),
				})
			}
		}
		opts = opts[l:]
	}
	if hl < len(b) {
		s.Payload = b[hl:]
	}
	return nil
}

// DecodeSegment is DecodeSegmentInto a freshly allocated Segment with
// the payload copied out of b.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func DecodeSegment(src, dst ip6.Addr, b []byte) (*Segment, error) {
	s := &Segment{}
	if err := DecodeSegmentInto(s, src, dst, b); err != nil {
		return nil, err
	}
	s.Payload = append([]byte(nil), s.Payload...)
	return s, nil
}

// Checksum computes the RFC 2460 TCP checksum of segment bytes b between
// src and dst. Encoding writes the sum so that verification yields zero.
func Checksum(src, dst ip6.Addr, b []byte) uint16 {
	sum := uint64(len(b)) + ip6.ProtoTCP
	sum = sumWords(sum, src[:])
	sum = sumWords(sum, dst[:])
	sum = sumWords(sum, b)
	// Fold 64 → 32 → 16 bits with end-around carry: 2^16 ≡ 1 (mod 0xffff).
	sum = sum>>32 + sum&0xffffffff
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// sumWords adds p to a ones'-complement sum as big-endian 16-bit words,
// eight bytes a step: the two 32-bit halves of a big-endian load are
// each a pair of such words (2^16 ≡ 1 mod 0xffff, so position within the
// accumulator does not matter until the final fold), and 2^31 steps fit
// in 64 bits. An odd last byte is padded with a zero, as the RFC says.
func sumWords(sum uint64, p []byte) uint64 {
	for len(p) >= 8 {
		v := binary.BigEndian.Uint64(p)
		sum += v>>32 + v&0xffffffff
		p = p[8:]
	}
	if len(p) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(p))
		p = p[4:]
	}
	if len(p) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(p))
		p = p[2:]
	}
	if len(p) == 1 {
		sum += uint64(p[0]) << 8
	}
	return sum
}
