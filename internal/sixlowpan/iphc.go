// Package sixlowpan implements the 6LoWPAN adaptation layer (RFC 4944 /
// RFC 6282 subset) that lets IPv6 packets ride on 127-byte 802.15.4
// frames: IPHC header compression, FRAG1/FRAGN fragmentation with
// 8-octet offset units accounted in uncompressed-datagram bytes, and
// reassembly with timeouts. Loss of any one fragment loses the whole
// packet — the reliability trade-off behind the paper's MSS study (§6.1).
//
// # Buffer ownership
//
// Like the mote's single 6LoWPAN reassembly buffer (§4.3, Table 4), the
// adaptation layer lives in a few buffers that are reused, and the
// per-datagram path allocates nothing in steady state.
//
// Headers are coded in place: AppendCompressHeader appends to the
// caller's bytes (at most MaxCompressedHeaderLen of them) and
// DecompressHeaderInto fills the caller's ip6.Header; neither keeps a
// reference to its arguments.
//
// A Fragmenter owns a pool of fragment buffers. AppendFragments copies
// the compressed header and the payload into buffers from the pool and
// appends them to the caller's list — the list is the caller's, each
// buffer is the caller's until it hands it back with Release, after
// which it must not be touched.
//
// A Reassembler owns one arena per interface: partial-datagram
// descriptors and payload buffers, both recycled on completion and on
// expiry alike, plus the one ip6.Packet that Input returns. A
// descriptor carries its coverage bitmap by value — one bit per payload
// byte, 256 bytes for the largest datagram the 11-bit datagram_size can
// state, set a word at a time (package bitmap, as tcplp's receive queue
// does) — so there is no bitmap to pool. The returned packet's Payload
// aliases an arena buffer (fragmented datagram) or the link payload
// passed to Input (unfragmented). Packet and payload are valid until
// Input is next called on the same reassembler, and an unfragmented
// payload no longer than the link payload itself (the MAC's receive
// buffer is valid for the OnReceive callback only). Every consumer in
// this repository finishes with them inside that call — tcplp's receive
// queue, udp.Decode, AppendFragments and the border's wire all copy what
// they keep; a new consumer that keeps either must copy too. Nothing in
// the arena exists before the interface's first fragment.
//
// The -tags poison build (package poison) overwrites released fragment
// buffers, the free arena buffers and the previous packet at exactly
// those moments.
package sixlowpan

import (
	"encoding/binary"
	"errors"

	"tcplp/internal/ip6"
)

// Dispatch prefixes.
const (
	dispIPHC  = 0x60 // 011xxxxx
	dispFRAG1 = 0xc0 // 11000xxx
	dispFRAGN = 0xe0 // 11100xxx
)

// IPHC flag bits within the two-byte IPHC base.
const (
	// byte 0: 011 TF(2) NH(1) HLIM(2)
	iphcTFElided = 0x18 // TF=11: traffic class and flow label elided
	iphcTFInline = 0x00 // TF=00: 4 bytes inline
	// byte 1: CID SAC SAM(2) M DAC DAM(2)
	iphcSAC   = 0x40
	iphcSAM16 = 0x20 // SAM=10: 16 bits inline (with SAC: context-based)
	iphcDAC   = 0x04
	iphcDAM16 = 0x02
)

// Compression errors.
var (
	ErrNotIPHC    = errors.New("sixlowpan: not an IPHC header")
	ErrTruncated  = errors.New("sixlowpan: truncated")
	ErrBadVersion = errors.New("sixlowpan: cannot compress non-IPv6")
)

// MaxCompressedHeaderLen is the longest IPHC header AppendCompressHeader
// produces: the 2-byte base, traffic class and flow label inline, next
// header and hop limit, and both addresses in full.
const MaxCompressedHeaderLen = 2 + 4 + 2 + 16 + 16

// AppendCompressHeader appends h in IPHC form to dst and returns the
// extended slice. The hop limit is always carried inline so that relays
// can decrement it in place when forwarding fragments without
// reassembly. Addresses under the mesh context (fd00::/64, short IID)
// compress to 16 bits; others ride inline in full. Typical result:
// 8 bytes in place of 40 (Table 6: "IPv6 2 B to 28 B").
func AppendCompressHeader(dst []byte, h *ip6.Header) []byte {
	base := len(dst)
	b := append(dst, dispIPHC, 0)
	// TF=00 carries traffic class and flow label inline in 4 bytes;
	// NH=0 carries the next header inline; HLIM=00 the hop limit.
	if h.TrafficClass == 0 && h.FlowLabel == 0 {
		b[base] |= iphcTFElided
	} else {
		b = append(b, h.TrafficClass,
			byte(h.FlowLabel>>16)&0x0f, byte(h.FlowLabel>>8), byte(h.FlowLabel))
	}
	b = append(b, h.NextHeader, h.HopLimit)
	if iid, ok := h.Src.IID16(); ok {
		b[base+1] |= iphcSAC | iphcSAM16
		b = binary.BigEndian.AppendUint16(b, iid)
	} else {
		b = append(b, h.Src[:]...)
	}
	if iid, ok := h.Dst.IID16(); ok {
		b[base+1] |= iphcDAC | iphcDAM16
		b = binary.BigEndian.AppendUint16(b, iid)
	} else {
		b = append(b, h.Dst[:]...)
	}
	return b
}

// CompressHeader is AppendCompressHeader into a fresh buffer.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func CompressHeader(h *ip6.Header) []byte {
	return AppendCompressHeader(make([]byte, 0, 12), h)
}

// DecompressHeaderInto parses an IPHC-compressed header into h,
// overwriting every field (PayloadLen zero; the caller knows it from
// framing), and returns the number of bytes consumed. On error h is
// left partly written.
func DecompressHeaderInto(h *ip6.Header, b []byte) (int, error) {
	if len(b) < 2 || b[0]&0xe0 != dispIPHC {
		return 0, ErrNotIPHC
	}
	*h = ip6.Header{}
	i := 2
	if b[0]&iphcTFElided == 0 {
		if len(b) < i+4 {
			return 0, ErrTruncated
		}
		h.TrafficClass = b[i]
		h.FlowLabel = uint32(b[i+1]&0x0f)<<16 | uint32(b[i+2])<<8 | uint32(b[i+3])
		i += 4
	}
	if len(b) < i+2 {
		return 0, ErrTruncated
	}
	h.NextHeader = b[i]
	h.HopLimit = b[i+1]
	i += 2
	n, err := readAddr(&h.Src, b[i:], b[1]&iphcSAM16 != 0)
	if err != nil {
		return 0, err
	}
	i += n
	if n, err = readAddr(&h.Dst, b[i:], b[1]&iphcDAM16 != 0); err != nil {
		return 0, err
	}
	return i + n, nil
}

// readAddr decodes one address field from the front of b — 16 bits
// under the mesh context when compressed, 128 bits inline otherwise —
// and returns the bytes consumed.
func readAddr(a *ip6.Addr, b []byte, compressed bool) (int, error) {
	if compressed {
		if len(b) < 2 {
			return 0, ErrTruncated
		}
		*a = ip6.Addr{14: b[0], 15: b[1]}
		copy(a[:8], ip6.ULAPrefix[:])
		return 2, nil
	}
	if len(b) < 16 {
		return 0, ErrTruncated
	}
	copy(a[:], b[:16])
	return 16, nil
}

// DecompressHeader is DecompressHeaderInto a freshly allocated header.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func DecompressHeader(b []byte) (*ip6.Header, int, error) {
	h := &ip6.Header{}
	n, err := DecompressHeaderInto(h, b)
	if err != nil {
		return nil, 0, err
	}
	return h, n, nil
}

// hopLimitIndex returns the byte offset of the inline hop limit within an
// IPHC header starting at b[0].
func hopLimitIndex(b []byte) (int, bool) {
	if len(b) < 2 || b[0]&0xe0 != dispIPHC {
		return 0, false
	}
	i := 2
	if b[0]&iphcTFElided == 0 {
		i += 4
	}
	i++ // next header
	if len(b) <= i {
		return 0, false
	}
	return i, true
}

// DecrementHopLimit decrements the hop limit inside an IPHC-led link
// payload in place, returning the new value. Used by relays forwarding
// fragments without reassembly. ok is false if b is not IPHC-led.
func DecrementHopLimit(b []byte) (uint8, bool) {
	i, ok := hopLimitIndex(b)
	if !ok || b[i] == 0 {
		return 0, ok && false
	}
	b[i]--
	return b[i], true
}
