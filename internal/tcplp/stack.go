package tcplp

import (
	"fmt"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/poison"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// StackStats counts stack-level events.
type StackStats struct {
	SegsIn        uint64
	BadChecksum   uint64
	NoSocket      uint64
	RSTsSent      uint64
	ConnsAccepted uint64
	ConnsOpened   uint64
	// BufBytes is the bytes of send and receive arrays (bitmaps
	// included) the stack's connections have made.
	BufBytes uint64
}

type connKey struct {
	remote       ip6.Addr
	rport, lport uint16
}

// Listener is a passive socket (§4.1): it holds only a port and a
// callback — far smaller than an active socket, which is why the paper
// distinguishes the two at the protocol level.
type Listener struct {
	stack *Stack
	port  uint16
	// OnAccept is invoked when a connection completes its handshake.
	OnAccept func(c *Conn)
	// Config, if set, is the Config of every incoming connection; nil
	// uses the stack default.
	Config *Config
}

// Stack is one node's TCP protocol instance.
type Stack struct {
	eng  *sim.Engine
	addr ip6.Addr
	cfg  Config

	// Output transmits an IPv6 packet toward its destination; the node
	// wiring (internal/stack) supplies it.
	Output func(pkt *ip6.Packet)

	// PoolEncode recycles each outgoing segment's wire buffer and
	// ip6.Packet through a stack-local free list instead of allocating
	// them per segment. Only safe when Output consumes the packet and
	// its payload before returning — the node transmit path does
	// (fragmentation, local decode, and the wire all copy); test shims
	// that schedule delayed delivery of the same packet must leave this
	// off (the default).
	PoolEncode bool
	txFree     []*txSlot
	rxFree     []*Segment // decoded-segment free list (getRx / putRx)

	// OnExpectingChange fires when the stack starts/stops having any
	// connection with unacknowledged data — the duty-cycling hint wire
	// (§9.2).
	OnExpectingChange func(expecting bool)

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	expecting int // connections with unACKed data (Conn.setExpecting)
	nextPort  uint16

	Stats StackStats

	// Trace/TraceNode, when Trace is non-nil, emit per-segment obs
	// events tagged with the owning node's id.
	Trace     *obs.Trace
	TraceNode int
}

// NewStack creates a TCP instance bound to addr (MakeStack's, on the
// heap).
func NewStack(eng *sim.Engine, addr ip6.Addr, cfg Config) *Stack {
	s := MakeStack(eng, addr, cfg)
	return &s
}

// MakeStack returns a TCP instance bound to addr by value: a node holds
// its stack as a field, not as one more object. An unknown cfg.Variant is
// a configuration programming error and panics here, at setup time,
// rather than when the first connection is made.
func MakeStack(eng *sim.Engine, addr ip6.Addr, cfg Config) Stack {
	if !cc.Valid(cfg.Variant) {
		panic(fmt.Sprintf("tcplp: unknown congestion-control variant %q", cfg.Variant))
	}
	// The demux maps initialise lazily at their write sites so a node
	// that never opens a socket — every relay of a city, woken only to
	// forward — carries no map headers (nil maps read fine).
	return Stack{
		eng:      eng,
		addr:     addr,
		cfg:      cfg,
		nextPort: 49152,
	}
}

// tsNow is the RFC 7323 timestamp clock (1 ms granularity).
func (s *Stack) tsNow() uint32 {
	return uint32(int64(s.eng.Now())/int64(sim.Millisecond)) + 1
}

// Listen opens a passive socket on port.
func (s *Stack) Listen(port uint16, onAccept func(*Conn)) *Listener {
	l := &Listener{stack: s, port: port, OnAccept: onAccept}
	if s.listeners == nil {
		s.listeners = map[uint16]*Listener{}
	}
	s.listeners[port] = l
	return l
}

// Connect opens an active connection to raddr:rport with the stack's
// default configuration.
func (s *Stack) Connect(raddr ip6.Addr, rport uint16) *Conn {
	return s.ConnectConfig(raddr, rport, s.cfg)
}

// ConnectConfig opens an active connection with an explicit Config.
func (s *Stack) ConnectConfig(raddr ip6.Addr, rport uint16, cfg Config) *Conn {
	c := newConn(s, cfg)
	c.localAddr = s.addr
	c.remoteAddr = raddr
	c.localPort = s.allocPort()
	c.remotePort = rport
	s.addConn(connKey{raddr, rport, c.localPort}, c)
	s.Stats.ConnsOpened++
	c.connect()
	return c
}

func (s *Stack) allocPort() uint16 {
	for {
		s.nextPort++
		if s.nextPort < 49152 {
			s.nextPort = 49152
		}
		free := true
		for k := range s.conns {
			if k.lport == s.nextPort {
				free = false
				break
			}
		}
		if free {
			return s.nextPort
		}
	}
}

// Input feeds a received IPv6 packet into the TCP layer. The segment is
// decoded in place — its payload aliases pkt.Payload and the receive
// queue copies what it keeps — so neither pkt nor its payload is
// referenced once Input returns.
func (s *Stack) Input(pkt *ip6.Packet) {
	if pkt.NextHeader != ip6.ProtoTCP || pkt.Dst != s.addr {
		return
	}
	s.Stats.SegsIn++
	seg := s.getRx()
	if err := DecodeSegmentInto(seg, pkt.Src, pkt.Dst, pkt.Payload); err != nil {
		s.Stats.BadChecksum++
	} else {
		seg.JID = pkt.JID
		s.demux(pkt, seg)
	}
	s.putRx(seg)
}

// getRx takes a Segment to decode into off the free list. A free list
// and not one Segment per stack, because Input re-enters: a segment
// whose ACK is self-addressed is delivered while the outer call still
// reads its own.
func (s *Stack) getRx() *Segment {
	if k := len(s.rxFree); k > 0 {
		seg := s.rxFree[k-1]
		s.rxFree = s.rxFree[:k-1]
		return seg
	}
	return &Segment{}
}

// putRx takes a decoded Segment back once input processing is done with
// it; no connection keeps the segment or its payload.
func (s *Stack) putRx(seg *Segment) {
	if poison.Enabled { // a kept *Segment reads garbage, not the next arrival
		const w = poison.Byte
		*seg = Segment{SrcPort: w, DstPort: w, SeqNum: w, AckNum: w, Flags: w, Window: w, JID: w}
	}
	s.rxFree = append(s.rxFree, seg)
}

// demux hands a decoded segment to its connection, or to the listener a
// SYN is addressed to.
func (s *Stack) demux(pkt *ip6.Packet, seg *Segment) {
	ce := pkt.ECN() == ip6.CE
	key := connKey{pkt.Src, seg.SrcPort, seg.DstPort}
	if c, ok := s.conns[key]; ok {
		c.input(seg, ce)
		c.checkInvariants("input")
		return
	}
	// No connection: a SYN to a listening port spawns one.
	if l, ok := s.listeners[seg.DstPort]; ok &&
		seg.Flags.Has(FlagSYN) && !seg.Flags.Has(FlagACK) && !seg.Flags.Has(FlagRST) {
		cfg := s.cfg
		if l.Config != nil {
			cfg = *l.Config
			// A listener's config is only validated here, on the packet
			// path: refuse the connection rather than panic
			// mid-simulation.
			if !cc.Valid(cfg.Variant) {
				s.Stats.NoSocket++
				s.sendRSTFor(pkt.Src, seg)
				return
			}
		}
		c := newConn(s, cfg)
		c.localAddr = s.addr
		c.remoteAddr = pkt.Src
		c.localPort = seg.DstPort
		c.remotePort = seg.SrcPort
		s.addConn(key, c)
		c.acceptSyn(seg)
		c.checkInvariants("input (SYN)")
		return
	}
	s.Stats.NoSocket++
	if !seg.Flags.Has(FlagRST) {
		s.sendRSTFor(pkt.Src, seg)
	}
}

// sendRSTFor answers a segment for which no socket exists (RFC 793).
func (s *Stack) sendRSTFor(src ip6.Addr, seg *Segment) {
	s.Stats.RSTsSent++
	rst := &Segment{
		SrcPort: seg.DstPort,
		DstPort: seg.SrcPort,
		Flags:   FlagRST,
	}
	if seg.Flags.Has(FlagACK) {
		rst.SeqNum = seg.AckNum
	} else {
		rst.Flags |= FlagACK
		rst.AckNum = seg.SeqNum.Add(seg.Len())
	}
	s.sendSegment(s.addr, src, rst, ip6.NotECT, nil)
}

// txSlot is one outgoing segment's storage: the wire buffer it is
// encoded into and the IPv6 packet that carries it to Output. With
// PoolEncode a slot is the stack's again the moment Output returns;
// a send that re-enters while Output runs (a self-addressed segment is
// delivered, and ACKed, synchronously) finds the free list one shorter
// and takes a different slot. Without PoolEncode every slot is fresh and
// Output may keep it.
type txSlot struct {
	pkt ip6.Packet
	buf []byte
}

// getTx returns a slot whose buffer holds at least n bytes.
func (s *Stack) getTx(n int) *txSlot {
	var t *txSlot
	if k := len(s.txFree); k > 0 {
		t, s.txFree = s.txFree[k-1], s.txFree[:k-1]
	} else {
		t = &txSlot{}
	}
	if cap(t.buf) < n {
		t.buf = make([]byte, n)
	}
	return t
}

// putTx takes a slot back once Output is done with it.
func (s *Stack) putTx(t *txSlot) {
	if !s.PoolEncode {
		return
	}
	poison.Packet(&t.pkt)
	poison.Bytes(t.buf)
	s.txFree = append(s.txFree, t)
}

// sendSegment wraps a TCP segment in an IPv6 packet and transmits it.
// t, when non-nil, is the slot the caller already read seg.Payload into
// (at seg.HeaderLen() of t.buf), so encoding moves no payload bytes.
func (s *Stack) sendSegment(src, dst ip6.Addr, seg *Segment, ecn ip6.ECN, t *txSlot) {
	if t == nil {
		t = s.getTx(seg.WireLen())
	}
	pkt := &t.pkt
	*pkt = ip6.Packet{
		Header: ip6.Header{
			NextHeader: ip6.ProtoTCP,
			HopLimit:   ip6.DefaultHopLimit,
			Src:        src,
			Dst:        dst,
		},
		Payload: seg.AppendEncode(t.buf, src, dst),
		JID:     seg.JID,
	}
	pkt.SetECN(ecn)
	pkt.PayloadLen = uint16(len(pkt.Payload))
	if s.Output != nil {
		s.Output(pkt)
	}
	s.putTx(t)
}

func (s *Stack) addConn(key connKey, c *Conn) {
	if s.conns == nil {
		s.conns = map[connKey]*Conn{}
	}
	s.conns[key] = c
}

// removeConn drops a closed connection's demux entry.
func (s *Stack) removeConn(c *Conn) {
	delete(s.conns, connKey{c.remoteAddr, c.remotePort, c.localPort})
}

// notifyAccept fires the listener callback for a freshly established
// passive connection.
func (s *Stack) notifyAccept(c *Conn) {
	if l, ok := s.listeners[c.localPort]; ok && l.OnAccept != nil {
		s.Stats.ConnsAccepted++
		l.OnAccept(c)
	}
}
