package coap

import (
	"encoding/binary"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/poison"
	"tcplp/internal/ring"
	"tcplp/internal/sim"
	"tcplp/internal/udp"
)

// ClientStats counts exchange-layer events (Fig. 9b reads
// Retransmissions).
type ClientStats struct {
	Sent            uint64 // first transmissions
	Retransmissions uint64
	Responses       uint64
	GiveUps         uint64
}

// exchange is one request, from PostJID to its done callback. Exchanges
// are pooled; each owns the buffer its message is encoded into once, at
// PostJID, and sent from on every (re)transmission.
type exchange struct {
	mid         uint16
	confirmable bool
	wire        []byte // the encoded message; its last payload bytes are the caller's payload
	payload     int
	done        func(payload []byte, ok bool)
	retries     int
	firstTx     sim.Time
	rto         sim.Duration
	jid         int64 // journey packet id; shared by every retransmission of the exchange
}

// Client is a CoAP client bound to one server, enforcing NSTART=1 (one
// outstanding confirmable exchange).
type Client struct {
	eng     *sim.Engine
	sock    *udp.Stack
	dst     ip6.Addr
	dstPort uint16
	srcPort uint16

	// Policy supplies RTOs: DefaultPolicy or CoCoA.
	Policy RTOPolicy

	// OnSample, when set, receives each completed exchange's time since
	// first transmission, the sample Policy then learns from, so CON
	// flows report RTT distributions the way TCP flows do. Samples for
	// retransmitted exchanges conflate retransmission delay into "RTT"
	// (the §9.4 CoCoA pathology makes that visible).
	OnSample func(sinceFirstTx sim.Duration)

	// OnExpectingChange mirrors the TCP stack's duty-cycle hint: true
	// while a confirmable exchange awaits its ACK (§9.2).
	OnExpectingChange func(bool)

	cur     *exchange // NSTART = 1: the one exchange in flight
	queue   ring.Ring[*exchange]
	free    []*exchange
	path    []byte  // PostJID's scratch copy of the path
	rx      Message // decode target; aliases the datagram during onDatagram
	nonDone func()  // completes cur, a NON, from the event queue; bound once
	timer   *sim.Timer
	nextMID uint16
	nextTok uint64

	Stats ClientStats

	// Trace/Node, when Trace is non-nil, emit retransmission and RTO
	// events (obs).
	Trace *obs.Trace
	Node  int
}

// NewClient creates a client on sock targeting dst:dstPort.
func NewClient(eng *sim.Engine, sock *udp.Stack, dst ip6.Addr, dstPort uint16) *Client {
	c := &Client{
		eng:     eng,
		sock:    sock,
		dst:     dst,
		dstPort: dstPort,
		Policy:  DefaultPolicy{},
		nextMID: uint16(eng.Rand().Uint32()),
	}
	c.nonDone = func() { c.finish(c.cur, true) }
	c.timer = sim.NewTimer(eng, c.onTimeout)
	c.srcPort = sock.Bind(0, c.onDatagram)
	return c
}

// Pending returns queued plus in-flight exchanges.
func (c *Client) Pending() int {
	n := c.queue.Len()
	if c.cur != nil {
		n++
	}
	return n
}

// PostJID sends a POST to path. Confirmable requests are retransmitted
// and report success/failure via done; nonconfirmable ones are fire-and-
// forget (done, if set, is called optimistically after transmission).
// path and payload are copied before PostJID returns; done is handed the
// exchange's copy of the payload, good for the call only. jid is the
// journey packet id for causal tracing (0 for none), deliberately reused
// across every retransmission of the exchange — the analyzer sees one
// packet identity per CoAP message, a documented simplification
// (per-attempt MAC/PHY events still distinguish attempts by time).
func (c *Client) PostJID(path string, payload []byte, confirmable bool, block *Block1, jid int64, done func(payload []byte, ok bool)) {
	var ex *exchange
	if k := len(c.free); k > 0 {
		ex, c.free = c.free[k-1], c.free[:k-1]
	} else {
		ex = new(exchange)
	}
	c.nextMID++
	c.nextTok++
	var tok [4]byte
	binary.BigEndian.PutUint32(tok[:], uint32(c.nextTok))
	// The options sit in arrays on this frame (AddOption's append would
	// move them to the heap).
	var opts [2]Option
	var blk [3]byte
	n := 0
	if path != "" {
		c.path = append(c.path[:0], path...)
		opts[n] = Option{Number: OptUriPath, Value: c.path}
		n++
	}
	if block != nil {
		opts[n] = Option{Number: OptBlock1, Value: block.AppendEncode(blk[:0])}
		n++
	}
	m := Message{Type: NON, Code: CodePOST, MessageID: c.nextMID, Token: tok[:], Options: opts[:n], Payload: payload}
	if confirmable {
		m.Type = CON
	}
	*ex = exchange{mid: c.nextMID, confirmable: confirmable, wire: m.AppendEncode(ex.wire[:0]), payload: len(payload), done: done, jid: jid}
	c.queue.Push(ex)
	c.pump()
}

func (c *Client) pump() {
	if c.cur != nil || c.queue.Len() == 0 {
		return
	}
	ex := c.queue.Pop()
	c.cur = ex
	ex.firstTx = c.eng.Now()
	ex.rto = c.Policy.InitialRTO(c.eng.Rand())
	c.Stats.Sent++
	c.sock.SendJID(c.dst, c.dstPort, c.srcPort, ex.wire, ex.jid)
	if ex.confirmable {
		c.setExpecting(true)
		c.timer.Reset(ex.rto)
	} else {
		// Nonconfirmable: complete after the (unreliable) send — via the
		// event queue, because the completion callback may immediately
		// queue the next message (drain loops would otherwise recurse
		// one stack frame per message). Only this event completes a
		// NON, so it is still cur when the event fires.
		c.eng.Schedule(0, c.nonDone)
	}
}

func (c *Client) onTimeout() {
	ex := c.cur
	if ex == nil {
		return
	}
	ex.retries++
	if ex.retries > MaxRetransmit {
		c.Stats.GiveUps++
		c.finish(ex, false)
		return
	}
	c.Stats.Retransmissions++
	ex.rto = c.Policy.Backoff(ex.rto)
	if tr := c.Trace; tr != nil {
		tr.Emit(obs.Event{T: c.eng.Now(), Kind: obs.CoAPRtx, Node: c.Node, A: int64(ex.retries), B: int64(ex.rto), J: ex.jid})
	}
	c.sock.SendJID(c.dst, c.dstPort, c.srcPort, ex.wire, ex.jid)
	c.timer.Reset(ex.rto)
}

func (c *Client) onDatagram(src ip6.Addr, srcPort uint16, payload []byte) {
	m := &c.rx
	if DecodeInto(m, payload) != nil {
		return
	}
	ex := c.cur
	if ex == nil || !ex.confirmable {
		return
	}
	if m.Type != ACK && m.Type != RST {
		return
	}
	if m.MessageID != ex.mid {
		return
	}
	c.timer.Stop()
	c.Stats.Responses++
	sample := c.eng.Now().Sub(ex.firstTx)
	if c.OnSample != nil {
		c.OnSample(sample)
	}
	c.Policy.OnResponse(sample, ex.retries)
	if tr := c.Trace; tr != nil {
		tr.Emit(obs.Event{T: c.eng.Now(), Kind: obs.CoAPRTO, Node: c.Node,
			A: int64(sample), B: int64(c.Policy.OverallRTO())})
	}
	c.finish(ex, m.Type == ACK && m.Code != CodeNotFound)
}

// finish completes ex, which goes back to the pool only after done has
// returned: done reads the payload (a give-up names the readings lost)
// and may post again, which must not be handed the buffer done is reading.
func (c *Client) finish(ex *exchange, ok bool) {
	c.timer.Stop()
	c.cur = nil
	c.setExpecting(false)
	if ex.done != nil {
		ex.done(ex.wire[len(ex.wire)-ex.payload:], ok)
	}
	poison.Bytes(ex.wire)
	ex.done = nil
	c.free = append(c.free, ex)
	c.pump()
}

func (c *Client) setExpecting(on bool) {
	if c.OnExpectingChange != nil {
		c.OnExpectingChange(on)
	}
}
