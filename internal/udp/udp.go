// Package udp is the minimal UDP layer CoAP rides on: the 8-byte header
// codec and a port-demultiplexing endpoint.
//
// # Buffer ownership
//
// A Stack sends from one slot (packet + wire bytes) made by its first
// send. Send copies the caller's payload in, lends the slot to Output
// for the call — stack.Node.SendPacket copies it on — and owns it again
// when Output returns. Only a datagram to the node's own address, whose
// handler runs and may answer inside Output, finds the slot lent out:
// that send takes a fresh one. Input decodes in place: a Handler's
// payload aliases the packet Input was given (the reassembler's, valid
// until the next frame) and is good for the call only.
package udp

import (
	"encoding/binary"
	"errors"

	"tcplp/internal/ip6"
	"tcplp/internal/poison"
)

// HeaderLen is the UDP header length.
const HeaderLen = 8

// Datagram is a parsed UDP datagram.
type Datagram struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// AppendEncode appends the serialized datagram to dst (checksum left
// zero: corruption is modelled at the PHY).
func (d *Datagram) AppendEncode(dst []byte) []byte {
	n := HeaderLen + len(d.Payload)
	dst = append(dst, byte(d.SrcPort>>8), byte(d.SrcPort), byte(d.DstPort>>8), byte(d.DstPort), byte(n>>8), byte(n), 0, 0)
	return append(dst, d.Payload...)
}

// ErrTruncated reports a datagram shorter than its header or length field.
var ErrTruncated = errors.New("udp: truncated datagram")

// Decode parses a UDP datagram in place: Payload is b[HeaderLen:length].
func Decode(b []byte) (Datagram, error) {
	if len(b) < HeaderLen {
		return Datagram{}, ErrTruncated
	}
	ln := int(binary.BigEndian.Uint16(b[4:]))
	if ln < HeaderLen || ln > len(b) {
		return Datagram{}, ErrTruncated
	}
	return Datagram{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Payload: b[HeaderLen:ln],
	}, nil
}

// Handler receives a bound port's datagrams; payload is lent for the call.
type Handler func(src ip6.Addr, srcPort uint16, payload []byte)

// Stack is one node's UDP endpoint.
type Stack struct {
	addr ip6.Addr
	// Output transmits an IPv6 packet (wired up by the node).
	Output   func(pkt *ip6.Packet)
	handlers map[uint16]Handler
	nextPort uint16
	slot     *sendSlot // made by the first send
}

// sendSlot is the one packet and wire buffer a Stack sends from.
type sendSlot struct {
	pkt  ip6.Packet
	buf  []byte
	busy bool // Output is running on this slot
}

// NewStack returns a UDP endpoint bound to addr (MakeStack's, on the
// heap).
func NewStack(addr ip6.Addr) *Stack {
	s := MakeStack(addr)
	return &s
}

// MakeStack returns a UDP endpoint bound to addr by value: a node holds
// its stack as a field, not as one more object. The handler map
// initialises on first Bind so unbound nodes carry no map header.
func MakeStack(addr ip6.Addr) Stack {
	return Stack{addr: addr, nextPort: 40000}
}

// Bind registers a handler for a port, returning the port (0 picks an
// ephemeral one).
func (s *Stack) Bind(port uint16, h Handler) uint16 {
	if port == 0 {
		for {
			s.nextPort++
			if _, used := s.handlers[s.nextPort]; !used {
				port = s.nextPort
				break
			}
		}
	}
	if s.handlers == nil {
		s.handlers = map[uint16]Handler{}
	}
	s.handlers[port] = h
	return port
}

// Send transmits payload to dst:dstPort from srcPort.
func (s *Stack) Send(dst ip6.Addr, dstPort, srcPort uint16, payload []byte) {
	s.SendJID(dst, dstPort, srcPort, payload, 0)
}

// SendJID is Send with a journey packet id attached to the datagram for
// causal tracing (simulator metadata; never on the wire).
func (s *Stack) SendJID(dst ip6.Addr, dstPort, srcPort uint16, payload []byte, jid int64) {
	t := s.slot
	if t == nil || t.busy {
		t = &sendSlot{} // the first send, or one from inside Output (loopback)
		if s.slot == nil {
			s.slot = t
		}
	}
	d := Datagram{SrcPort: srcPort, DstPort: dstPort, Payload: payload}
	t.buf = d.AppendEncode(t.buf[:0])
	t.pkt = ip6.Packet{
		Header: ip6.Header{
			PayloadLen: uint16(len(t.buf)),
			NextHeader: ip6.ProtoUDP,
			HopLimit:   ip6.DefaultHopLimit,
			Src:        s.addr,
			Dst:        dst,
		},
		Payload: t.buf,
		JID:     jid,
	}
	if s.Output != nil {
		t.busy = true
		s.Output(&t.pkt)
		t.busy = false
	}
	poison.Packet(&t.pkt)
	poison.Bytes(t.buf)
}

// Input feeds a received IPv6 packet into the UDP layer.
func (s *Stack) Input(pkt *ip6.Packet) {
	if pkt.NextHeader != ip6.ProtoUDP || pkt.Dst != s.addr {
		return
	}
	d, err := Decode(pkt.Payload)
	if err != nil {
		return
	}
	if h, ok := s.handlers[d.DstPort]; ok {
		h(pkt.Src, d.SrcPort, d.Payload)
	}
}
