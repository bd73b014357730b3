// Package gateway implements the border-router gateway tier: a node
// type that terminates LLN-side TCP and CoAP telemetry flows at the
// border router and multiplexes them onto a modeled wide-area backhaul
// (netem.WANLink), the split-transport proxy architecture the paper
// stops short of (its evaluation ends at the border router).
//
// The gateway keeps a per-device connection table — bounded, with
// least-recently-active eviction — parses
// complete readings out of each device's stream or POSTs, and forwards
// them upstream as framed WAN messages. A shared cloud-side collector
// credits deliveries per source, so upstream fairness is measurable
// end-to-end (device → gateway → cloud), not just over the mesh hop.
//
// # Buffer ownership
//
// The gateway keeps no byte of a reading, only sequence numbers: TCP
// chunks live in the one drain buffer, a POST's payload is the CoAP
// server's, lent for onPost. The numbers ride in a pooled batch — the
// entry's until flush, the WAN link's until deliver or lost fires (or
// the queue refuses it, or the entry is evicted first), then the pool's.
package gateway

import (
	"tcplp/internal/app"
	"tcplp/internal/coap"
	"tcplp/internal/ip6"
	"tcplp/internal/netem"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

const (
	// DefaultTCPPort is the gateway's LLN-side TCP listening port.
	DefaultTCPPort = 7000
	// DefaultCoAPPort is the gateway's LLN-side CoAP server port.
	DefaultCoAPPort = coap.DefaultPort
	// wanFraming is the backhaul framing added per forwarded message (TLS
	// record + TCP/IP headers of a cloud uplink).
	wanFraming = 48
)

// Config parameterizes a gateway.
type Config struct {
	// MaxConns bounds the connection table; 0 is unbounded. A full table
	// evicts its least-recently-active device to admit a new one.
	MaxConns int
	// WAN shapes the backhaul link.
	WAN netem.WANConfig
}

// Stats counts gateway-level events. Reading counts are cumulative;
// callers windowing a measurement snapshot and subtract.
type Stats struct {
	Accepted     uint64 // LLN-side TCP connections accepted
	Posts        uint64 // CoAP POSTs served
	Reused       uint64 // arrivals that found a live table entry
	Evicted      uint64 // entries closed by capacity pressure
	ReadingsIn   uint64 // complete readings parsed off LLN flows
	ReadingsOut  uint64 // readings credited at the cloud collector
	ReadingsLost uint64 // readings dropped crossing the WAN
}

// registration is one flow probe's crediting hooks, keyed by device
// address. Any hook may be nil (unregistered devices still proxy; they
// just go unmeasured).
type registration struct {
	gwDeliver  func(seq uint32) // reading reached the gateway (mesh hop done)
	e2eDeliver func(seq uint32) // reading credited at the cloud collector
	wanLost    func(n int)      // readings lost crossing the WAN
	sink       *app.CountingSink
}

// entry is one connection-table slot: the per-device termination state.
type entry struct {
	addr       ip6.Addr
	conn       *tcplp.Conn       // live TCP connection; nil for CoAP devices
	stream     app.ReadingStream // one for the entry's life; accept resets it
	lastActive sim.Time
	pending    *batch // readings parsed but not yet offered to the WAN; nil when none
}

// batch is one WAN message's worth of readings and what the link's
// callbacks need to account for them; deliver and lost are bound when
// the batch is first made, so handing it to the link allocates nothing.
type batch struct {
	g             *Gateway
	seqs          []uint32
	addr          ip6.Addr      // the source device, which may be evicted before the link is done
	reg           *registration // its hooks at flush time; nil if unregistered
	deliver, lost func()
}

func (g *Gateway) getBatch(addr ip6.Addr) *batch {
	if k := len(g.batchFree); k > 0 {
		b := g.batchFree[k-1]
		g.batchFree, b.addr = g.batchFree[:k-1], addr
		return b
	}
	b := &batch{g: g, addr: addr}
	b.deliver, b.lost = b.delivered, func() { b.dropped(obs.CauseWanLoss) }
	return b
}

func (g *Gateway) putBatch(b *batch) {
	clear(b.seqs) // a reader that kept the list sees zeros, not the next batch
	b.seqs, b.reg = b.seqs[:0], nil
	g.batchFree = append(g.batchFree, b)
}

// Gateway is one instantiated gateway on the border router.
type Gateway struct {
	node *stack.Node
	eng  *sim.Engine
	cfg  Config
	wan  *netem.WANLink
	coap *coap.Server

	// entries is a slice, not a map: eviction scans must be
	// deterministic for the runner's serial-vs-parallel bit-identity.
	// byAddr indexes it for the per-arrival lookup, which at city scale
	// would otherwise scan thousands of entries per segment.
	entries []*entry
	byAddr  map[ip6.Addr]*entry
	regs    map[ip6.Addr]*registration

	batchFree []*batch

	// rdBuf is the drain scratch buffer shared by every accepted
	// connection: drains run synchronously on the engine and the stream
	// reassembly copies what it keeps, so one per gateway suffices (a
	// per-connection buffer is 4 KB × the city's device count).
	rdBuf []byte

	Stats Stats
}

// New installs a gateway on node (the border router): a shared TCP
// listener, whose connections take the node's TCP configuration, a CoAP
// server, and the WAN link, which gets its own deterministic loss source
// derived from seed. The gateway and its WAN link emit to the node's
// trace.
func New(node *stack.Node, cfg Config, seed int64) *Gateway {
	g := &Gateway{
		node:  node,
		eng:   node.Eng(),
		cfg:   cfg,
		wan:   netem.NewWANLink(node.Eng(), cfg.WAN, seed),
		regs:  map[ip6.Addr]*registration{},
		rdBuf: make([]byte, 4096),
	}
	g.wan.Trace, g.wan.Node = node.Net.Opt.Trace, node.ID
	node.TCP().Listen(DefaultTCPPort, g.accept)
	g.coap = coap.NewServer(node.Eng(), node.UDP(), DefaultCoAPPort)
	g.coap.OnPost = g.onPost
	return g
}

// CoAPDedupPeak is the most answered exchanges the gateway's CoAP server
// has held at once.
func (g *Gateway) CoAPDedupPeak() int { return g.coap.DedupPeak() }

// WAN returns the backhaul link (stats and queue depth).
func (g *Gateway) WAN() *netem.WANLink { return g.wan }

// Active returns the current connection-table population.
func (g *Gateway) Active() int { return len(g.entries) }

// Register installs the measurement hooks for one device and returns
// the per-source sink counting cloud-credited payload bytes. Call
// before the device's flow starts; every hook may be nil.
func (g *Gateway) Register(addr ip6.Addr, gwDeliver, e2eDeliver func(seq uint32), wanLost func(n int)) *app.CountingSink {
	r := &registration{
		gwDeliver:  gwDeliver,
		e2eDeliver: e2eDeliver,
		wanLost:    wanLost,
		sink:       app.NewCountingSink(g.eng),
	}
	g.regs[addr] = r
	return r.sink
}

// touch returns the device's entry, creating one (evicting the
// least-recently-active entry if the table is full) or refreshing an
// existing one.
func (g *Gateway) touch(addr ip6.Addr) *entry {
	now := g.eng.Now()
	if e := g.byAddr[addr]; e != nil {
		g.Stats.Reused++
		e.lastActive = now
		return e
	}
	if g.cfg.MaxConns > 0 && len(g.entries) >= g.cfg.MaxConns {
		g.evictLRA()
	}
	e := &entry{addr: addr, lastActive: now}
	e.stream.Deliver = func(seq uint32) { g.onReading(e, seq) }
	g.entries = append(g.entries, e)
	if g.byAddr == nil {
		g.byAddr = map[ip6.Addr]*entry{}
	}
	g.byAddr[addr] = e
	if tr := g.node.Net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: now, Kind: obs.GwAdmit, Node: g.node.ID, A: int64(len(g.entries))})
	}
	return e
}

// evictLRA closes the least-recently-active entry (insertion order
// breaks ties, deterministically — the table is a slice).
func (g *Gateway) evictLRA() {
	if len(g.entries) == 0 {
		return
	}
	victim := 0
	for i, e := range g.entries[1:] {
		if e.lastActive < g.entries[victim].lastActive {
			victim = i + 1
		}
	}
	g.evict(victim)
}

// evict closes and removes the entry at index i. Readings parsed but
// not yet flushed to the WAN die with the entry; each is reported as a
// terminal journey loss so the conformance checker can account for it.
func (g *Gateway) evict(i int) {
	e := g.entries[i]
	g.entries = append(g.entries[:i], g.entries[i+1:]...)
	delete(g.byAddr, e.addr)
	g.Stats.Evicted++
	if tr := g.node.Net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: g.eng.Now(), Kind: obs.GwEvict, Node: g.node.ID, A: int64(len(g.entries))})
	}
	if b := e.pending; b != nil {
		g.emitReadings(e.addr, b.seqs, obs.JourneyLoss, obs.CauseGwEvict)
		g.putBatch(b)
		e.pending = nil
	}
	if e.conn != nil {
		e.conn.Close()
		e.conn = nil
	}
}

// emitReadings records one journey event per reading of a device's
// batch, keyed by the device's node id (the journey analyzer keys
// readings by source node + seq): a terminal JourneyLoss with its
// cause, or JourneyWanEnq — WAN acceptance, the boundary between the
// gateway table and the backhaul.
func (g *Gateway) emitReadings(addr ip6.Addr, seqs []uint32, kind obs.Kind, cause obs.Cause) {
	tr := g.node.Net.Opt.Trace
	if tr == nil || len(seqs) == 0 {
		return
	}
	node, ok := addr.ID()
	if !ok {
		return
	}
	now := g.eng.Now()
	for _, seq := range seqs {
		tr.Emit(obs.Event{T: now, Kind: kind, Node: node, A: int64(seq), Cause: cause})
	}
}

// accept terminates one LLN-side TCP connection: the device's table
// entry adopts it (closing any stale predecessor and resetting stream
// reassembly — a reconnect is a fresh byte stream) and the drain loop
// feeds arriving chunks through per-device reading reassembly.
func (g *Gateway) accept(c *tcplp.Conn) {
	g.Stats.Accepted++
	addr, _ := c.RemoteAddr()
	e := g.touch(addr)
	if e.conn != nil && e.conn != c {
		e.conn.Close()
	}
	e.conn = c
	e.stream.Reset()
	c.OnReadable = func() {
		for {
			n := c.Read(g.rdBuf)
			if n == 0 {
				break
			}
			e.lastActive = g.eng.Now()
			e.stream.Feed(g.rdBuf[:n])
		}
		g.flush(e)
	}
}

// onPost terminates one CoAP POST: datagram payloads carry whole
// readings, so they skip stream reassembly; payload is lent for the call.
func (g *Gateway) onPost(src ip6.Addr, payload []byte) coap.Code {
	g.Stats.Posts++
	e := g.touch(src)
	app.ForEachReading(payload, e.stream.Deliver)
	g.flush(e)
	return coap.CodeChanged
}

// onReading records one complete reading parsed off a device: the mesh
// hop is done (the per-device gwDeliver hook credits LLN-side
// delivery) and the reading joins the entry's pending WAN batch.
func (g *Gateway) onReading(e *entry, seq uint32) {
	g.Stats.ReadingsIn++
	e.lastActive = g.eng.Now()
	if r := g.regs[e.addr]; r != nil && r.gwDeliver != nil {
		r.gwDeliver(seq)
	}
	if e.pending == nil {
		e.pending = g.getBatch(e.addr)
	}
	e.pending.seqs = append(e.pending.seqs, seq)
}

// flush forwards the entry's pending readings as one framed WAN
// message. Delivery credits the device's collector-side sink and e2e
// hook; a queue drop or in-flight loss reports through wanLost so
// probes can separate losses from in-flight backlog.
func (g *Gateway) flush(e *entry) {
	b := e.pending
	if b == nil {
		return
	}
	e.pending = nil
	b.reg = g.regs[e.addr]
	if g.wan.Send(len(b.seqs)*app.ReadingSize+wanFraming, b.deliver, b.lost) {
		g.emitReadings(e.addr, b.seqs, obs.JourneyWanEnq, obs.CauseNone)
	} else {
		b.dropped(obs.CauseWanQueueDrop)
	}
}

// delivered credits a batch that reached the cloud collector.
func (b *batch) delivered() {
	g, r := b.g, b.reg
	g.Stats.ReadingsOut += uint64(len(b.seqs))
	if r != nil {
		r.sink.Received += len(b.seqs) * app.ReadingSize
		if r.e2eDeliver != nil {
			for _, seq := range b.seqs {
				r.e2eDeliver(seq)
			}
		}
	}
	g.putBatch(b)
}

// dropped accounts a batch the WAN refused or lost.
func (b *batch) dropped(cause obs.Cause) {
	g := b.g
	g.Stats.ReadingsLost += uint64(len(b.seqs))
	g.emitReadings(b.addr, b.seqs, obs.JourneyLoss, cause)
	if r := b.reg; r != nil && r.wanLost != nil {
		r.wanLost(len(b.seqs))
	}
	g.putBatch(b)
}
