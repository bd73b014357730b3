package sixlowpan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"tcplp/internal/poison"
)

// Fragment header lengths (RFC 4944 §5.3). The paper's Table 6 lists the
// 6LoWPAN fragmentation overhead as 4-5 bytes per frame (plus mesh
// headers in some stacks, which Thread route-over does not use).
const (
	Frag1HeaderLen = 4
	FragNHeaderLen = 5
)

// MaxDatagramSize is the largest uncompressed datagram FRAG1/FRAGN can
// describe: their datagram_size field is 11 bits wide.
const MaxDatagramSize = 1<<11 - 1

// Fragmentation errors.
var (
	ErrNotFragment = errors.New("sixlowpan: not a fragment")
	ErrBadOffset   = errors.New("sixlowpan: fragment offset out of range")
)

// FragmentKind classifies a link payload.
type FragmentKind int

// Link payload kinds.
const (
	KindUnfragmented FragmentKind = iota
	KindFrag1
	KindFragN
	KindUnknown
)

// Classify inspects the dispatch byte of a link payload.
func Classify(b []byte) FragmentKind {
	if len(b) == 0 {
		return KindUnknown
	}
	switch {
	case b[0]&0xf8 == dispFRAG1:
		return KindFrag1
	case b[0]&0xf8 == dispFRAGN:
		return KindFragN
	case b[0]&0xe0 == dispIPHC:
		return KindUnfragmented
	}
	return KindUnknown
}

// FragInfo is a parsed FRAG1/FRAGN header.
type FragInfo struct {
	DatagramSize uint16 // uncompressed IPv6 datagram length
	Tag          uint16
	Offset       int // uncompressed-byte offset (0 for FRAG1)
	HeaderLen    int // bytes consumed by the fragment header
}

// ParseFragment decodes the fragmentation header of a FRAG1/FRAGN link
// payload.
func ParseFragment(b []byte) (FragInfo, error) {
	var fi FragInfo
	switch Classify(b) {
	case KindFrag1:
		if len(b) < Frag1HeaderLen {
			return fi, ErrTruncated
		}
		fi.DatagramSize = binary.BigEndian.Uint16(b[0:2]) & MaxDatagramSize
		fi.Tag = binary.BigEndian.Uint16(b[2:4])
		fi.HeaderLen = Frag1HeaderLen
		return fi, nil
	case KindFragN:
		if len(b) < FragNHeaderLen {
			return fi, ErrTruncated
		}
		fi.DatagramSize = binary.BigEndian.Uint16(b[0:2]) & MaxDatagramSize
		fi.Tag = binary.BigEndian.Uint16(b[2:4])
		fi.Offset = int(b[4]) * 8
		fi.HeaderLen = FragNHeaderLen
		return fi, nil
	}
	return fi, ErrNotFragment
}

// RewriteTag replaces the datagram tag of a FRAG1/FRAGN link payload in
// place. Relays forwarding fragments hop-by-hop re-tag them, since tags
// are scoped to the link-layer sender.
func RewriteTag(b []byte, tag uint16) error {
	k := Classify(b)
	if k != KindFrag1 && k != KindFragN {
		return ErrNotFragment
	}
	if len(b) < 4 {
		return ErrTruncated
	}
	binary.BigEndian.PutUint16(b[2:4], tag)
	return nil
}

// Fragmenter splits (compressed-header, payload) pairs into link
// payloads. It owns the datagram tag counter of one interface and a
// free list of fragment buffers: callers return each buffer with
// Release once the link layer is finished with it, so steady-state
// fragmentation allocates nothing.
type Fragmenter struct {
	tag  uint16
	free [][]byte
	// bufCap is the capacity every pooled buffer has or is grown to: the
	// largest link MTU or buffer asked for so far. A recycled buffer then
	// fits any request, so a pool of mixed sizes does not churn.
	bufCap int
}

// getBuf returns an empty buffer with at least the requested capacity,
// recycling a released one when possible.
func (f *Fragmenter) getBuf(capacity int) []byte {
	f.bufCap = max(f.bufCap, capacity)
	if n := len(f.free); n > 0 {
		b := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return slices.Grow(b[:0], f.bufCap) // grows only a buffer older than a larger request
	}
	return make([]byte, 0, f.bufCap)
}

// Clone copies b into a pooled buffer — the relay path uses it so
// forwarded fragments recycle through the same pool as locally
// originated ones.
func (f *Fragmenter) Clone(b []byte) []byte {
	out := f.getBuf(len(b))
	return append(out, b...)
}

// Release returns a fragment buffer produced by AppendFragments (or
// Clone) to the pool. The caller must not touch the slice afterwards.
func (f *Fragmenter) Release(b []byte) {
	if cap(b) == 0 {
		return
	}
	poison.Bytes(b)
	f.free = append(f.free, b)
}

// NextTag returns a fresh datagram tag.
func (f *Fragmenter) NextTag() uint16 {
	f.tag++
	return f.tag
}

// AppendFragments appends to dst the link payloads for an IPv6 packet
// already split into its compressed header chdr and upper-layer payload,
// and returns the extended list; chdr and payload are copied, not
// retained. maxLink is the largest link payload a frame can carry
// (phy.MaxMACPayload). Each appended buffer comes from the pool and goes
// back with Release; dst itself is the caller's (stack.outItem keeps one
// backing array per queued datagram).
//
// Offsets are in uncompressed-datagram bytes: the first fragment covers
// the 40-byte uncompressed header plus enough payload to end on an
// 8-octet boundary, as RFC 4944 requires.
func (f *Fragmenter) AppendFragments(dst [][]byte, chdr, payload []byte, maxLink int) [][]byte {
	f.bufCap = max(f.bufCap, maxLink)
	if len(chdr)+len(payload) <= maxLink {
		one := f.getBuf(len(chdr) + len(payload))
		one = append(one, chdr...)
		one = append(one, payload...)
		return append(dst, one)
	}
	size := 40 + len(payload)
	if size > MaxDatagramSize {
		// scenario.Spec.Validate bounds seg_frames so that no spec gets here.
		panic(fmt.Sprintf("sixlowpan: datagram of %d bytes exceeds the %d-byte field", size, MaxDatagramSize))
	}
	tag := f.NextTag()
	dst = slices.Grow(dst, FrameCount(len(chdr), len(payload), maxLink)) // a new list grows once, a kept one not at all

	// First fragment: FRAG1 + compressed header + leading payload, with
	// the covered uncompressed prefix (40 + p1) a multiple of 8.
	p1 := maxLink - Frag1HeaderLen - len(chdr)
	if p1 > len(payload) {
		p1 = len(payload)
	}
	p1 -= (40 + p1) % 8
	if p1 < 0 {
		p1 = 0
	}
	frag1 := f.getBuf(Frag1HeaderLen + len(chdr) + p1)
	frag1 = binary.BigEndian.AppendUint16(frag1, uint16(dispFRAG1)<<8|uint16(size))
	frag1 = binary.BigEndian.AppendUint16(frag1, tag)
	frag1 = append(frag1, chdr...)
	frag1 = append(frag1, payload[:p1]...)
	dst = append(dst, frag1)

	// Subsequent fragments: FRAGN + payload chunks on 8-octet boundaries.
	chunk := (maxLink - FragNHeaderLen) &^ 7
	for off := p1; off < len(payload); off += chunk {
		end := off + chunk
		if end > len(payload) {
			end = len(payload)
		}
		fn := f.getBuf(FragNHeaderLen + end - off)
		fn = binary.BigEndian.AppendUint16(fn, uint16(dispFRAGN)<<8|uint16(size))
		fn = binary.BigEndian.AppendUint16(fn, tag)
		fn = append(fn, byte((40+off)/8))
		fn = append(fn, payload[off:end]...)
		dst = append(dst, fn)
	}
	return dst
}

// Fragment is AppendFragments into a fresh list.
// Outside tests only benchmark/kernels.go calls it; it leaves with the
// benchmark refresh (ROADMAP item 5).
func (f *Fragmenter) Fragment(chdr, payload []byte, maxLink int) [][]byte {
	return f.AppendFragments(nil, chdr, payload, maxLink)
}

// FrameCount predicts how many fragments AppendFragments will produce for a
// payload of n bytes under a compressed header of h bytes — the inverse
// of the MSS-in-frames knob of §6.1.
func FrameCount(h, n, maxLink int) int {
	if h+n <= maxLink {
		return 1
	}
	p1 := maxLink - Frag1HeaderLen - h
	if p1 > n {
		p1 = n
	}
	p1 -= (40 + p1) % 8
	if p1 < 0 {
		p1 = 0
	}
	rest := n - p1
	chunk := (maxLink - FragNHeaderLen) &^ 7
	return 1 + (rest+chunk-1)/chunk
}

// MaxPayloadForFrames returns the largest upper-layer payload (e.g. TCP
// segment) that fits in the given number of frames, assuming a
// compressed header of h bytes. It inverts FrameCount.
func MaxPayloadForFrames(h, frames, maxLink int) int {
	if frames <= 0 {
		return 0
	}
	if frames == 1 {
		return maxLink - h
	}
	p1 := maxLink - Frag1HeaderLen - h
	p1 -= (40 + p1) % 8
	if p1 < 0 {
		p1 = 0
	}
	chunk := (maxLink - FragNHeaderLen) &^ 7
	return p1 + (frames-1)*chunk
}
