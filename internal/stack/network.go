package stack

import (
	"fmt"

	"tcplp/internal/energy"
	"tcplp/internal/ip6"
	"tcplp/internal/mac"
	"tcplp/internal/mesh"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/poison"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/tcplp"
	"tcplp/internal/tcplp/cc"
)

// HostID is the node identifier of the wired cloud host.
const HostID = 999

// borderID is the node identifier of the border router.
const borderID = 0

// HostBufSize is the wired host's TCP send and receive buffer size. The
// host is unconstrained — same protocol logic ("the TCP implementation in
// the FreeBSD operating system" on both ends), large buffers.
const HostBufSize = 64 * 1024

// hostWireDelay is the one-way border↔host latency (§9.2: ≈6 ms each
// way for the 12 ms RTT to EC2).
const hostWireDelay = 6 * sim.Millisecond

// Options configures a simulated network.
type Options struct {
	// MAC holds the CSMA/ARQ parameters, including the §7.1 link-retry
	// delay knob.
	MAC mac.Params
	// TCP is the base connection configuration; MSS and buffer sizes are
	// always derived from SegFrames and WindowSegs (DerivedTCPConfig).
	TCP tcplp.Config
	// SegFrames is the TCP MSS expressed in 802.15.4 frames (§6.1;
	// paper default 5).
	SegFrames int
	// WindowSegs is the send/receive buffer size in segments (§6.2;
	// paper default 4).
	WindowSegs int
	// QueueCap bounds each node's datagram transmit queue.
	QueueCap int
	// RED enables Appendix A's relays: random early detection that marks
	// ECN-capable packets (every TCP segment sets ECT) instead of
	// dropping them, over relays that reassemble every packet, since RED
	// sees whole packets only. Without it relays forward fragments.
	RED bool
	// PER applies a uniform per-frame corruption probability on every
	// radio link (beyond collisions).
	PER float64
	// Trace, when non-nil, threads the obs instrumentation through
	// every layer of every node (phy, MAC, 6LoWPAN, IP queue, TCP).
	// Nil — the default — keeps every hook a single nil check.
	Trace *obs.Trace
}

// DefaultOptions mirrors the paper's standard setup. QueueCap is sized
// so a full TCP window's worth of fragments (4 segments × 6 frames) can
// sit at a relay without tail drops, like OpenThread's message buffers.
func DefaultOptions() Options {
	return Options{
		MAC:        mac.DefaultParams(),
		TCP:        tcplp.DefaultConfig(),
		SegFrames:  5,
		WindowSegs: 4,
		QueueCap:   32,
	}
}

// Network is a simulated LLN plus optional wired host.
type Network struct {
	Eng     *sim.Engine
	Channel *phy.Channel
	Topo    mesh.Topology
	Routes  *mesh.Routes
	Opt     Options

	Nodes []*Node
	Host  *Node

	// What a node borrows for one frame belongs to the network ("Buffer
	// ownership" in the package comment): fragment buffers, queue items
	// (outFree, linked through outItem.link; outItems counts those made)
	// and MAC transmit jobs, each from one free list.
	fragBufs sixlowpan.BufPool
	outFree  *outItem
	outItems int
	macJobs  mac.JobPool
}

// PoolCounts is how many objects each of a network's packet pools made
// over a run, warm-up included: what the run's traffic in flight needed
// at its peak, not what its nodes are.
type PoolCounts struct {
	FragBufs int `json:"frag_bufs"` // fragment buffers, a regrown one included
	OutItems int `json:"out_items"` // queued-datagram items
	MacJobs  int `json:"mac_jobs"`  // MAC transmit jobs
}

// Pools returns what the network's packet pools have made so far.
func (net *Network) Pools() PoolCounts {
	return PoolCounts{
		FragBufs: net.fragBufs.Made(),
		OutItems: net.outItems,
		MacJobs:  net.macJobs.Made(),
	}
}

// New builds a network over topo with node 0 as the border router. opt
// is DefaultOptions with any changes made on top.
func New(seed int64, topo mesh.Topology, opt Options) *Network {
	eng := sim.NewEngine(seed)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(topo.TxRange, topo.SenseRange))
	ch.Reserve(topo.N())
	ch.Trace = opt.Trace
	if opt.PER > 0 {
		per := opt.PER
		ch.PER = func(src, dst *phy.Radio) float64 { return per }
	}
	net := &Network{
		Eng:     eng,
		Channel: ch,
		Topo:    topo,
		Routes:  topo.Routes(),
		Opt:     opt,
	}
	net.Opt.TCP = DerivedTCPConfig(net.Opt, opt.TCP)
	// Every node starts dormant ("Dormancy" in the package comment): a
	// slot in one slab and a radio that listens and filters, as the MAC
	// wake builds would have left it, with no receiver: the channel's one
	// wake hook stands in for all of them.
	ch.Wake = net.wakeRadio
	nodes := make([]Node, topo.N())
	net.Nodes = make([]*Node, len(nodes))
	for i := range nodes {
		n := &nodes[i]
		n.ID, n.Net, n.Addr = i, net, ip6.AddrFromID(i)
		n.CPU = energy.MakeCPUMeter(eng)
		n.Radio = ch.AddRadio(i, topo.Positions[i])
		n.Radio.SetAddressFilter(true)
		n.Radio.SetListen(true)
		net.Nodes[i] = n
	}
	return net
}

// wakeRadio is the channel's Wake hook: a frame the radio of a dormant
// node wants wakes the node, whose new MAC installs the radio's
// OnReceive and is handed the frame. Radios that are not a node's (an
// interferer's) stay as they are.
func (net *Network) wakeRadio(r *phy.Radio) {
	if id := r.ID(); uint(id) < uint(len(net.Nodes)) && net.Nodes[id].Radio == r {
		net.Nodes[id].awake()
	}
}

// MSSInfo describes the derived segment sizing.
type MSSInfo struct {
	CompressedHeaderLen int
	TCPHeaderLen        int
	SegmentPayload      int // 6LoWPAN payload per segment packet
	MSS                 int // TCP payload bytes
}

// SegmentSizing computes the MSS for a segment spanning the given number
// of frames under the current option set (the §6.1 MSS-in-frames knob).
func SegmentSizing(frames int, useTimestamps bool) MSSInfo {
	sample := &ip6.Header{
		NextHeader: ip6.ProtoTCP,
		HopLimit:   64,
		Src:        ip6.AddrFromID(1),
		Dst:        ip6.AddrFromID(2),
	}
	chdr := len(sixlowpan.AppendCompressHeader(nil, sample))
	tcpHdr := tcplp.BaseHeaderLen
	if useTimestamps {
		tcpHdr += 12
	}
	seg := sixlowpan.MaxPayloadForFrames(chdr, frames, phy.MaxMACPayload)
	return MSSInfo{
		CompressedHeaderLen: chdr,
		TCPHeaderLen:        tcpHdr,
		SegmentPayload:      seg,
		MSS:                 seg - tcpHdr,
	}
}

// DerivedTCPConfig computes the TCP configuration New derives from opt:
// MSS from the segment-in-frames knob and buffers from the window knob.
// Both must be set, as in DefaultOptions and in every Network's Opt.
func DerivedTCPConfig(opt Options, base tcplp.Config) tcplp.Config {
	info := SegmentSizing(opt.SegFrames, base.UseTimestamps)
	cfg := base
	cfg.MSS = info.MSS
	cfg.SendBufSize = opt.WindowSegs * info.MSS
	cfg.RecvBufSize = opt.WindowSegs * info.MSS
	cfg.UseECN = opt.RED
	return cfg
}

// FlowTCPConfig is the network's TCP configuration (Opt.TCP) with the
// congestion-control variant v; an empty v keeps the network default.
// Use it with tcplp.Stack.ConnectConfig / Listener.Config to mix
// variants between flows of one mesh.
func (net *Network) FlowTCPConfig(v cc.Variant) tcplp.Config {
	cfg := net.Opt.TCP
	if v != "" {
		cfg.Variant = v
	}
	return cfg
}

// AttachHost creates the wired cloud host behind the border router
// (node 0) and returns it. Like a mesh node it is dormant until used.
func (net *Network) AttachHost() *Node {
	if net.Host != nil {
		return net.Host
	}
	host := &Node{
		ID:   HostID,
		Net:  net,
		Addr: ip6.AddrFromID(HostID),
		CPU:  energy.MakeCPUMeter(net.Eng),
	}
	net.Host = host
	if b := net.Border(); b.layers != nil {
		b.wire = newWireEnd(net.Eng, host) // the host's end waits for its wake
	}
	return host
}

// MakeSleepyLeaf converts node id into a duty-cycled leaf: its parent is
// its next hop toward the border router, which queues downstream frames
// for it (indirect delivery). The leaf's TCP stack drives the fast-poll
// hint (§9.2). Configure the returned controller (intervals, adaptive
// mode) and then call its Start method. Both the leaf and its parent
// wake. A leaf the topology cuts off from the border router is an error.
func (net *Network) MakeSleepyLeaf(id int) (*mac.SleepController, error) {
	n := net.Nodes[id]
	parentID, ok := net.Routes.NextHop(id, borderID)
	if !ok {
		return nil, fmt.Errorf("stack: leaf %d has no route to the border router (node %d)", id, borderID)
	}
	parent := net.Nodes[parentID]
	parent.Mac().SetChildSleepy(n.LinkAddr())
	sc := mac.NewSleepController(net.Eng, n.Mac(), parent.LinkAddr())
	n.Sleep = sc
	n.TCP().OnExpectingChange = func(expecting bool) { sc.SetExpecting(expecting) }
	return sc, nil
}

// Border returns the border router (node 0).
func (net *Network) Border() *Node { return net.Nodes[borderID] }

// TotalFramesSent sums frames put on air by all mesh radios — the
// Fig. 6d metric.
func (net *Network) TotalFramesSent() uint64 {
	var total uint64
	for _, r := range net.Channel.Radios() {
		total += r.FramesSent()
	}
	return total
}

// TotalLossEvents sums datagram losses across all mesh nodes — the
// ground-truth numerator for segment-loss measurements (losses not
// masked by link retries, as Fig. 6 defines them).
func (net *Network) TotalLossEvents() uint64 {
	var total uint64
	for _, n := range net.Nodes {
		total += n.LossEvents()
	}
	return total
}

// FwdEntriesPeak returns the most datagrams any node has held in its
// forwarding cache at once.
func (net *Network) FwdEntriesPeak() int {
	peak := 0
	for _, n := range net.Nodes {
		if n.layers != nil {
			peak = max(peak, n.fwdPeak)
		}
	}
	return peak
}

// TCPBufBytes returns the bytes of TCP send and receive arrays every
// node's stack and the host's have made. Dormant nodes made none.
func (net *Network) TCPBufBytes() uint64 {
	var total uint64
	for _, n := range net.Nodes {
		total += n.TCPStats().BufBytes
	}
	if net.Host != nil {
		total += net.Host.TCPStats().BufBytes
	}
	return total
}

// ---- wire (border router ↔ cloud host) ----

// wireEnd is one direction of the wire: a FIFO of hostWireDelay. Packets
// in flight sit in pooled slots, linked in send order; every send
// schedules the same prebuilt callback, and because the delay is
// constant and the engine fires same-instant events in schedule order,
// the k-th callback to fire always finds the k-th packet sent at the
// head.
type wireEnd struct {
	eng  *sim.Engine
	peer *Node

	head, tail *wireSlot // in flight, oldest first
	free       *wireSlot
	deliverFn  func() // w.deliver, built once
}

// wireSlot holds one packet in flight: a copy of the sender's packet
// whose Payload aliases buf. The slot is the wire's from send until the
// peer's wireReceive returns.
type wireSlot struct {
	pkt  ip6.Packet
	buf  []byte
	next *wireSlot
}

func newWireEnd(eng *sim.Engine, peer *Node) *wireEnd {
	w := &wireEnd{eng: eng, peer: peer}
	w.deliverFn = w.deliver
	return w
}

func (w *wireEnd) send(pkt *ip6.Packet) {
	// The wire holds the packet until the peer takes delivery; copy it
	// and its payload so the sender may recycle both the moment the
	// synchronous transmit path returns (tcplp.PoolEncode, the
	// reassembler's packet).
	s := w.free
	if s == nil {
		s = &wireSlot{}
	} else {
		w.free, s.next = s.next, nil
	}
	s.buf = append(s.buf[:0], pkt.Payload...)
	s.pkt = *pkt
	s.pkt.Payload = s.buf
	if w.tail == nil {
		w.head = s
	} else {
		w.tail.next = s
	}
	w.tail = s
	w.eng.Schedule(hostWireDelay, w.deliverFn)
}

// deliver hands the oldest packet in flight to the peer and recycles
// its slot.
func (w *wireEnd) deliver() {
	s := w.head
	if w.head = s.next; w.head == nil {
		w.tail = nil
	}
	w.peer.wireReceive(&s.pkt)
	poison.Packet(&s.pkt)
	poison.Bytes(s.buf)
	s.next, w.free = w.free, s
}

func (n *Node) wireReceive(pkt *ip6.Packet) {
	n.awake()
	if pkt.Dst == n.Addr {
		n.deliver(pkt)
		return
	}
	// Border router: downlink packet entering the mesh.
	if n.dropAtBorder(pkt) {
		return
	}
	n.stats.PacketsFwd++
	n.route(pkt, true)
}
