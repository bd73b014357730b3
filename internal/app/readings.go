package app

import (
	"encoding/binary"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// ForEachReading invokes f once per complete reading in buf (readings
// travel back-to-back, ReadingSize bytes each, with the sequence number
// in the first four) and returns how many complete readings buf held.
// Trailing partial bytes are ignored — the caller keeps them as stream
// remainder.
func ForEachReading(buf []byte, f func(seq uint32)) int {
	n := len(buf) / ReadingSize
	for i := 0; i < n; i++ {
		f(binary.BigEndian.Uint32(buf[i*ReadingSize:]))
	}
	return n
}

// ReadingStream reassembles readings out of an ordered byte stream that
// may arrive in arbitrary chunks (the TCP collector side): whole
// readings are delivered straight out of the caller's chunk, and only
// the partial reading a chunk ends in is kept, in the stream's own array.
type ReadingStream struct {
	// Deliver is invoked once per complete reading.
	Deliver func(seq uint32)
	rem     [ReadingSize]byte
	n       int // bytes of rem in use, < ReadingSize
}

// Feed consumes one stream chunk; p is borrowed for the call.
func (rs *ReadingStream) Feed(p []byte) {
	if rs.n > 0 {
		k := copy(rs.rem[rs.n:], p)
		rs.n, p = rs.n+k, p[k:]
		if rs.n < ReadingSize {
			return
		}
		rs.Deliver(binary.BigEndian.Uint32(rs.rem[:]))
	}
	n := ForEachReading(p, rs.Deliver)
	rs.n = copy(rs.rem[:], p[n*ReadingSize:])
}

// Reset forgets a partial reading: what follows is a new byte stream.
func (rs *ReadingStream) Reset() { rs.n = 0 }

// ListenReadingSink installs a reading-parsing TCP collector for one
// flow on node:port: the shared Sink drain loop with each chunk also
// fed through stream reassembly, handing every complete reading to
// deliver. The accepted connection uses cfg, so the flow's window
// binds at the collector too.
func ListenReadingSink(node *stack.Node, port uint16, cfg tcplp.Config, deliver func(seq uint32)) *Sink {
	rs := &ReadingStream{Deliver: deliver}
	return listenSinkData(node, port, cfg, rs.Feed)
}

// ---- UDP transport ----

// UDPTransport ships readings as raw UDP datagrams sized like the CoAP
// batch messages — the unreliable floor of the §9 comparison without
// even CoAP's NON framing. Delivery is counted at the collector; lost
// datagrams are simply never credited.
type UDPTransport struct {
	sock    *stack.Node
	dst     ip6.Addr
	dstPort uint16
	srcPort uint16
	// MessageSize is the payload bytes per datagram.
	MessageSize int

	// Sent counts datagrams put on the wire; SentBytes their payload.
	Sent      uint64
	SentBytes uint64
}

// NewUDPTransport builds a UDP transport from node to collector:port.
func NewUDPTransport(node *stack.Node, collector ip6.Addr, port uint16, msgSize int) *UDPTransport {
	t := &UDPTransport{sock: node, dst: collector, dstPort: port, MessageSize: msgSize}
	t.srcPort = node.UDP().Bind(0, func(ip6.Addr, uint16, []byte) {})
	return t
}

// Send implements Transport: up to MessageSize whole readings per
// datagram.
func (t *UDPTransport) Send(p []byte) int {
	n := t.MessageSize / ReadingSize * ReadingSize
	if n > len(p) {
		n = len(p) / ReadingSize * ReadingSize
	}
	if n == 0 {
		return 0
	}
	// The node's trace, when on, tags each datagram for causal tracing.
	var jid int64
	if tr := t.sock.Net.Opt.Trace; tr != nil {
		jid = tr.NextID()
		tr.Emit(obs.Event{T: t.sock.Eng().Now(), Kind: obs.JourneyData, Node: t.sock.ID, J: jid,
			A: int64(binary.BigEndian.Uint32(p)), B: int64(n / ReadingSize)})
	}
	t.sock.UDP().SendJID(t.dst, t.dstPort, t.srcPort, p[:n], jid)
	t.Sent++
	t.SentBytes += uint64(n)
	return n
}

// ListenReadingUDP installs a reading-parsing UDP collector on
// node:port. Datagrams carry whole readings, so no stream reassembly is
// needed; bytes are counted for goodput and each reading handed to
// deliver.
func ListenReadingUDP(node *stack.Node, port uint16, deliver func(seq uint32)) *CountingSink {
	s := &CountingSink{eng: node.Eng()}
	node.UDP().Bind(port, func(src ip6.Addr, srcPort uint16, payload []byte) {
		s.Received += len(payload)
		ForEachReading(payload, deliver)
	})
	return s
}

// CountingSink counts delivered payload bytes and keeps the Mark /
// GoodputKbps measurement window: the accounting every collector shares
// (the TCP Sink embeds it).
type CountingSink struct {
	Received  int
	markBytes int
	markTime  sim.Time
	eng       *sim.Engine
}

// NewCountingSink returns a byte-counting sink on eng's clock.
func NewCountingSink(eng *sim.Engine) *CountingSink { return &CountingSink{eng: eng} }

// Mark begins a measurement window at the current time.
func (s *CountingSink) Mark() {
	s.markBytes = s.Received
	s.markTime = s.eng.Now()
}

// GoodputKbps returns delivered-payload goodput in kb/s since Mark.
func (s *CountingSink) GoodputKbps() float64 {
	elapsed := s.eng.Now().Sub(s.markTime).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(s.Received-s.markBytes) * 8 / elapsed / 1000
}

// BytesSinceMark returns payload bytes received in the window.
func (s *CountingSink) BytesSinceMark() int { return s.Received - s.markBytes }
