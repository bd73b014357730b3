package coap

import (
	"tcplp/internal/ip6"
	"tcplp/internal/ring"
	"tcplp/internal/sim"
	"tcplp/internal/udp"
)

// DefaultPort is the CoAP UDP port.
const DefaultPort = 5683

// exchangeLifetime is how long a server remembers a CON exchange it
// answered (RFC 7252 §4.5, EXCHANGE_LIFETIME): a retransmission within
// it is answered again without re-delivery.
const exchangeLifetime = 250 * sim.Second

// ServerStats counts server-side events.
type ServerStats struct {
	Requests   uint64 // deduplicated POSTs delivered to the handler
	Duplicates uint64 // retransmissions answered from the dedup cache
	NonPosts   uint64 // nonconfirmable requests (no ACK generated)
}

// ackLen is the longest piggybacked ACK: 4 header bytes + 8 of token.
const ackLen = 12

// answered is one CON exchange the server acknowledged.
type answered struct {
	ack     [ackLen]byte // the encoded ACK, inline: replayed, never re-encoded
	n       uint8
	mid     uint16
	expires sim.Time
}

// client is what a server keeps about one source: the exchanges it
// answered, oldest first. Every one lives exactly exchangeLifetime, so
// arrival order is expiry order and the expired ones are at the head.
type client struct {
	addr     ip6.Addr
	answered ring.Ring[answered]
}

// Server is the collector side: it accepts POSTs (whole or blockwise),
// hands payloads to OnPost, and piggybacks the response code on the ACK.
// It stands in for the paper's Californium cloud service, with the
// custom blockwise handling of §9.1 (a failed block never discards the
// rest of the batch — each block is an independent exchange).
// Deduplication keeps one record per client, found by a linear walk (a
// collector hears a handful of sources, a gateway its devices), whose
// exchanges a datagram from that client expires at the head and then
// searches: no map, and no sweep over every client's exchanges.
type Server struct {
	eng  *sim.Engine
	sock *udp.Stack
	port uint16

	// OnPost handles a (deduplicated) request payload and returns the
	// response code. Each block of a blockwise batch arrives as its own
	// request. payload aliases the datagram: good for the call only.
	OnPost func(src ip6.Addr, payload []byte) Code

	clients    []client
	held, peak int     // answered exchanges over all clients, now and at most
	rx         Message // decode target; aliases the datagram during onDatagram

	Stats ServerStats
}

// NewServer binds a server to port on sock.
func NewServer(eng *sim.Engine, sock *udp.Stack, port uint16) *Server {
	s := &Server{eng: eng, sock: sock, port: port}
	sock.Bind(port, s.onDatagram)
	return s
}

// DedupPeak is the most answered exchanges the server has held at once,
// over all its clients.
func (s *Server) DedupPeak() int { return s.peak }

// clientIndex returns the index of src's record, adding one if there is
// none.
func (s *Server) clientIndex(src ip6.Addr) int {
	for i := range s.clients {
		if s.clients[i].addr == src {
			return i
		}
	}
	s.clients = append(s.clients, client{addr: src})
	return len(s.clients) - 1
}

// lookup forgets c's expired exchanges and returns its live one with
// message ID mid, or nil.
func (s *Server) lookup(c *client, mid uint16) *answered {
	now := s.eng.Now()
	for c.answered.Len() > 0 && now >= c.answered.At(0).expires {
		c.answered.Pop()
		s.held--
	}
	for i := 0; i < c.answered.Len(); i++ {
		if e := c.answered.At(i); e.mid == mid {
			return e
		}
	}
	return nil
}

func (s *Server) onDatagram(src ip6.Addr, srcPort uint16, payload []byte) {
	m := &s.rx
	if DecodeInto(m, payload) != nil {
		return
	}
	if m.Code != CodePOST {
		return
	}
	if m.Type != CON {
		// Nonconfirmable: deliver, no acknowledgment.
		s.Stats.NonPosts++
		s.handle(src, m)
		return
	}
	ci := s.clientIndex(src)
	if e := s.lookup(&s.clients[ci], m.MessageID); e != nil {
		// Our ACK was lost; replay it without re-delivering.
		s.Stats.Duplicates++
		s.sock.Send(src, srcPort, s.port, e.ack[:e.n])
		return
	}
	// Read first what the ACK needs: m is s.rx, which a handler
	// posting to this server re-enters (the datagram stays put), and
	// which may add a client, moving the records.
	mid, token := m.MessageID, m.Token
	ack := Message{Type: ACK, Code: s.handle(src, m), MessageID: mid, Token: token}
	e := answered{mid: mid, expires: s.eng.Now().Add(exchangeLifetime)}
	e.n = uint8(len(ack.AppendEncode(e.ack[:0])))
	s.clients[ci].answered.Push(e)
	s.held++
	s.peak = max(s.peak, s.held)
	s.sock.Send(src, srcPort, s.port, e.ack[:e.n])
}

func (s *Server) handle(src ip6.Addr, m *Message) Code {
	s.Stats.Requests++
	if s.OnPost == nil {
		return CodeChanged
	}
	return s.OnPost(src, m.Payload)
}
