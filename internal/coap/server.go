package coap

import (
	"tcplp/internal/ip6"
	"tcplp/internal/sim"
	"tcplp/internal/udp"
)

// DefaultPort is the CoAP UDP port.
const DefaultPort = 5683

// exchangeLifetime bounds message-ID deduplication state.
const exchangeLifetime = 250 * sim.Second

// ServerStats counts server-side events.
type ServerStats struct {
	Requests   uint64 // deduplicated POSTs delivered to the handler
	Duplicates uint64 // retransmissions answered from the dedup cache
	NonPosts   uint64 // nonconfirmable requests (no ACK generated)
}

type dedupKey struct {
	src ip6.Addr
	mid uint16
}

// ackLen is the longest piggybacked ACK: 4 header bytes + 8 of token.
const ackLen = 12

type dedupEntry struct {
	ack     [ackLen]byte // the encoded ACK, inline: replayed, never re-encoded
	n       uint8
	expires sim.Time
}

// Server is the collector side: it accepts POSTs (whole or blockwise),
// hands payloads to OnPost, and piggybacks the response code on the ACK.
// It stands in for the paper's Californium cloud service, with the
// custom blockwise handling of §9.1 (a failed block never discards the
// rest of the batch — each block is an independent exchange).
type Server struct {
	eng  *sim.Engine
	sock *udp.Stack
	port uint16

	// OnPost handles a (deduplicated) request payload and returns the
	// response code. Each block of a blockwise batch arrives as its own
	// request. payload aliases the datagram: good for the call only.
	OnPost func(src ip6.Addr, payload []byte) Code

	dedup map[dedupKey]dedupEntry
	rx    Message // decode target; aliases the datagram during onDatagram

	Stats ServerStats
}

// NewServer binds a server to port on sock.
func NewServer(eng *sim.Engine, sock *udp.Stack, port uint16) *Server {
	s := &Server{eng: eng, sock: sock, port: port, dedup: map[dedupKey]dedupEntry{}}
	sock.Bind(port, s.onDatagram)
	return s
}

func (s *Server) onDatagram(src ip6.Addr, srcPort uint16, payload []byte) {
	m := &s.rx
	if DecodeInto(m, payload) != nil {
		return
	}
	if m.Code != CodePOST {
		return
	}
	s.gc()
	if m.Type == CON {
		key := dedupKey{src, m.MessageID}
		if e, dup := s.dedup[key]; dup {
			// Our ACK was lost; replay it without re-delivering.
			s.Stats.Duplicates++
			s.sock.Send(src, srcPort, s.port, e.ack[:e.n])
			return
		}
		// Read first what the ACK needs: m is s.rx, which a handler
		// posting to this server re-enters (the datagram stays put).
		mid, token := m.MessageID, m.Token
		ack := Message{Type: ACK, Code: s.handle(src, m), MessageID: mid, Token: token}
		e := dedupEntry{expires: s.eng.Now().Add(exchangeLifetime)}
		e.n = uint8(len(ack.AppendEncode(e.ack[:0])))
		s.dedup[key] = e
		s.sock.Send(src, srcPort, s.port, e.ack[:e.n])
		return
	}
	// Nonconfirmable: deliver, no acknowledgment.
	s.Stats.NonPosts++
	s.handle(src, m)
}

func (s *Server) handle(src ip6.Addr, m *Message) Code {
	s.Stats.Requests++
	if s.OnPost == nil {
		return CodeChanged
	}
	return s.OnPost(src, m.Payload)
}

func (s *Server) gc() {
	now := s.eng.Now()
	if len(s.dedup) < 256 {
		return
	}
	for k, e := range s.dedup {
		if now >= e.expires {
			delete(s.dedup, k)
		}
	}
}
