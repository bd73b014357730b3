// Package poison is the buffer-ownership safety net for tests. Every
// recycled buffer on the packet path (MAC transmit jobs, PHY
// transmissions and receive buffers, fragment buffers, the reassembly
// arena, TCP transmit slots and decoded segments, wire slots) has one
// owner and one moment at which that owner may reuse it; the owner calls
// Bytes or Packet at exactly that moment. In a normal build Enabled is a
// false constant and the calls compile to nothing. Under
//
//	go test -tags poison ./internal/...
//
// the bytes become 0xA5, so a reader that held on past the owner's rule
// sees garbage instead of data that merely happens to still be there: a
// golden or Result digest that moves under the tag is a
// use-after-recycle. A build tag, not a runtime option — the two builds
// differ in nothing else.
package poison

import "tcplp/internal/ip6"

// Byte is the pattern poisoned memory is filled with.
const Byte = 0xA5

// Bytes overwrites b through its full capacity when poisoning is on.
func Bytes(b []byte) {
	if !Enabled {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = Byte
	}
}

// Packet overwrites a pooled packet's header and metadata and drops its
// payload reference when poisoning is on.
func Packet(p *ip6.Packet) {
	if !Enabled {
		return
	}
	*p = ip6.Packet{
		Header: ip6.Header{TrafficClass: Byte, FlowLabel: Byte, PayloadLen: Byte, NextHeader: Byte, HopLimit: Byte},
		JID:    Byte,
	}
	Bytes(p.Src[:])
	Bytes(p.Dst[:])
}
