// Package stack composes the full per-node network stack — radio, MAC,
// 6LoWPAN, IPv6 forwarding, TCP, UDP — and builds whole simulated
// networks: the mesh, its border router, and the wired cloud host behind
// it (the §5 experimental setup of Fig. 2/3).
//
// # Buffer ownership
//
// The datagram path — tcplp.Conn.sendData → tcplp.Stack.sendSegment →
// Node.route → Fragmenter.AppendFragments → (mac, phy) → Node.onFrame →
// tryForwardFragment / Reassembler.Input → Node.deliver →
// tcplp.Stack.Input → Conn.input, and the border ↔ host wire beside it —
// allocates nothing in steady state, and every buffer on it is created
// by a datagram, neither by New nor by wake (TestDatagramPathAllocs,
// TestNodeBuffersLazy). UDP rides it under the same rule —
// udp.Stack.SendJID → Node.SendPacket down, Node.deliver →
// udp.Stack.Input → Handler up — and app's TestReadingPathAllocs holds
// the reading path above it to zero.
//
// What a node borrows for one frame belongs to the network: fragment
// buffers (one sixlowpan.BufPool), queued-datagram items (one free list)
// and MAC transmit jobs (one mac.JobPool), so a run makes as many as its
// traffic has in flight at once, not one set per node it wakes
// (TestRelayFirstFrameAllocs; Network.Pools counts them). A node keeps
// what is its own: its datagram tags, its queue, its forwarding cache. A
// pool belongs to one Network, whose nodes all run on its engine's
// goroutine, never to a package (TestNetworksShareNoPool).
//
// The packages around this one state their own rules (mac: transmit
// jobs and the receive buffer; sixlowpan: fragment buffers, the
// reassembly arena and Input's packet; tcplp.Stack: the PoolEncode
// slots; udp: the send slot and a handler's payload; coap, gateway,
// netem above that). What this package owns:
//
//   - A packet handed to SendPacket, route or deliver is borrowed for the
//     call. Transports send from a pooled slot that is theirs again when
//     Output returns (loopback excepted: a packet to the node's own
//     address is delivered, and may be answered, inside Output, so the
//     answer takes another slot); the reassembler's packet is valid
//     until the next frame; a wire slot until wireReceive returns. route
//     may rewrite the header (hop limit, ECN) but keeps nothing: the
//     payload is copied into fragment buffers or a wire slot before it
//     returns.
//   - The compressed header is built in a stack array inside route and
//     copied into the first frame.
//   - The frame list belongs to the outItem: route appends the
//     datagram's fragments to the list the item kept from its last life,
//     a relay appends its one cloned frame. Each frame buffer is the
//     item's until the MAC's done callback for it has run (the MAC copied
//     it into the job's wire buffer at load time); then it goes back to
//     the network's pool, and the item, list and all, to the network's
//     free list once the last frame has. Either may be handed to another
//     node at once.
//   - The datagram queue is threaded through its items (outItem.link,
//     which the free list uses too: an item is free or queued, never
//     both), and so is the MAC's transmit queue through its jobs.
//   - The forwarding cache is a slice of fwdEntry values, one per
//     datagram being relayed, keyed by (previous hop, tag) and searched
//     in full: an entry goes when the relay forwards the fragment that
//     ends its datagram, or, if that fragment never comes, at the first
//     search at or after its expiry. Nothing holds a pointer into it.
//   - A wireEnd owns its slots: send copies the packet and its payload
//     into one, the peer sees it during wireReceive only, and the slot is
//     reused for a later packet.
//
// The -tags poison build (package poison) overwrites wire slots on
// delivery, and through the lower layers everything else above, so a
// golden or digest test that moves under it has found a reader that
// outlived its buffer.
//
// # Dormancy
//
// A node pays for the layers above its radio when it first uses them
// (the paper's §4 memory argument — full TCP state only for a live
// connection — applied to the simulator: a city is mostly nodes nobody
// addresses). Out of New, every node of every network, a two-node chain
// included, is dormant: an 88-byte slot in one []Node slab (id, address,
// CPU meter, sleep controller, drop filter and a nil layers pointer), and
// a radio — itself a slot in the channel's slab — that is registered,
// listening and filtering on its address, exactly as a MAC would have
// left it, but with no receiver. It owns nothing else: no MAC, no ACK
// timer, no RED state, no TCP or UDP stack, no queue, reassembler,
// forwarding cache, wire or IP counters, none of the closures that tie
// them together. New allocates nothing per node (TestBuildAllocsPerNode).
// The host behind the border router starts the same way, minus the
// radio.
//
// (*Node).wake builds all of that, once, as New used to: one layers
// object holding everything, the MAC and the TCP and UDP stacks included
// by value. Its fields are named through the node's embedded pointer, so
// the packet path, which only an awake node runs, reads them as before.
// Three things wake a node. Code that asks for a layer: Mac, TCP and UDP
// are accessors, not fields, and a dormant node's accessor wakes it
// first, so nothing outside this file can observe a nil layer. A packet:
// SendPacket and the wire's delivery (the border router handed its first
// packet by the host, and the host) wake the node before routing it. And
// the radio: a dormant node's radio has no OnReceive, so a frame it
// wants goes to the channel's one Wake hook, which New sets to wake the
// node whose radio it is (an interferer's radio is no node's, and stays
// as it is). The new MAC installs OnReceive, and the channel hands it the
// same bytes at the same instant; it ACKs and delivers them like any
// other frame. The radio's address filter (package phy, "Hot state and
// frame filter") withholds every frame the MAC would have discarded, so
// that is the first frame addressed to the node, or the first broadcast
// it decodes.
//
// Waking is invisible to a run. Building a MAC, a TCP stack and a UDP
// stack draws no random number and schedules no event; a dormant radio
// goes through the same states, PER draws, counters and trace events as
// one with a MAC behind it; and a MAC whose radio hands it nothing does
// nothing. So a node woken at build, at its first frame, or half-way
// through receiving it produces the same Result bit for bit
// (TestWakeIsInvisible in package scenario runs every checked-in spec
// both ways; TestWakeOnFirstAddressedFrame pins the moment and the
// ACK; mac's FuzzFrameDstAgreesWithMac holds the filter to the MAC's own
// decision). There is no switch for the old behaviour. Counters are read
// without waking anybody: Stats, MacStats and TCPStats report zeros for
// a dormant node, which is what its layers would have counted.
package stack

import (
	"tcplp/internal/energy"
	"tcplp/internal/ip6"
	"tcplp/internal/mac"
	"tcplp/internal/mesh"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/tcplp"
	"tcplp/internal/udp"
)

// NodeStats counts IP-layer events at one node.
type NodeStats struct {
	PacketsSent      uint64 // locally originated datagrams
	PacketsDelivered uint64 // datagrams delivered to local transports
	FragmentsFwd     uint64 // fragments relayed (fragment forwarding)
	PacketsFwd       uint64 // whole packets relayed (RED relays / border)
	QueueDrops       uint64 // tail drops at the datagram queue
	REDDrops         uint64
	REDMarks         uint64
	LinkFailures     uint64 // datagrams abandoned after link-layer failure
	HopLimitDrops    uint64
	BorderDrops      uint64 // packets removed by the injected-loss filter
}

// fwdEntry is what a relay remembers of one datagram it is forwarding
// fragment by fragment: where its FRAG1 came from, and under which tag,
// and where it went, and under which.
type fwdEntry struct {
	src     phy.Addr
	tag     uint16
	newTag  uint16
	next    phy.Addr
	expires sim.Time
}

// outItem is one queued datagram: its link frames and how far the pump
// has got. Items come from the network's free list (newOutItem /
// freeOutItem) and keep the backing array of frames across lives. An
// item is free or queued at one node, so one link serves both lists.
type outItem struct {
	frames [][]byte
	hop    phy.Addr // the next hop
	idx    int
	jid    int64    // journey packet id of the datagram (0 = untagged)
	link   *outItem // the network's free list, or the node's queue
}

// Node is one device: a mesh node with a radio, or the wired host (radio
// and MAC nil).
type Node struct {
	ID  int
	Net *Network

	Radio *phy.Radio
	Sleep *mac.SleepController

	Addr ip6.Addr
	CPU  energy.CPUMeter

	// layers is everything above the radio, nil while the node is
	// dormant ("Dormancy" in the package comment); wake builds it. Its
	// fields are named through n, but only on an awake node.
	*layers

	// DropFilter, when set on the border router, removes packets
	// crossing between mesh and wire with the caller's probability
	// function — the §9.4 injected-loss mechanism.
	DropFilter func(pkt *ip6.Packet) bool
}

// layers is what an awake node has and a dormant one does not: the
// protocol layers above its radio and the packet state that ties them
// together, one object per woken node.
type layers struct {
	// Only wake, awake's accessors Mac, TCP and UDP, the counter readers
	// and pump name these three. They are values: a node's layers are
	// one object. The wired host's MAC stays zero.
	mac mac.Mac
	tcp tcplp.Stack
	udp udp.Stack

	reasm *sixlowpan.Reassembler // nil until reassembler() is first asked for it
	frag  sixlowpan.Fragmenter   // the node's datagram tags; buffers from the network's pool

	// qHead and qTail are the datagram queue, linked through
	// outItem.link, and qLen its length.
	qHead, qTail *outItem
	qLen         int
	sending      bool
	frameDoneFn  func(mac.TxStatus) // n.frameDone, built by wake; every frame's MAC callback

	red *mesh.RED
	// fwdCache holds the datagrams this relay is forwarding fragment by
	// fragment, each from its FRAG1 to its last fragment: a handful.
	// fwdPeak is the most it ever held.
	fwdCache []fwdEntry
	fwdPeak  int

	wire *wireEnd // the border router's and the host's: the wire between them

	stats NodeStats // read through Stats
}

// Mac returns the node's MAC, waking the node; nil on the wired host.
func (n *Node) Mac() *mac.Mac {
	if n.awake().Radio == nil {
		return nil
	}
	return &n.mac
}

// TCP returns the node's TCP stack, waking the node.
func (n *Node) TCP() *tcplp.Stack { return &n.awake().tcp }

// UDP returns the node's UDP stack, waking the node.
func (n *Node) UDP() *udp.Stack { return &n.awake().udp }

// awake returns n with its layers built.
func (n *Node) awake() *Node {
	if n.layers == nil {
		n.wake()
	}
	return n
}

// wake builds what a dormant node lacks: the MAC on its radio (a mesh
// node), RED state (a relay), the wire (the border router once the host
// is attached, and the host), and the transports. Fragment buffers,
// queue items and MAC jobs come from the network's pools. It draws no
// random number and schedules no event.
func (n *Node) wake() {
	net := n.Net
	cfg := net.Opt.TCP
	n.layers = &layers{}
	n.frag.Pool = &net.fragBufs
	if n.Radio != nil {
		n.mac.Init(net.Eng, n.Radio, net.Opt.MAC, &net.macJobs)
		n.mac.OnReceive = n.onFrame
		n.mac.Trace = net.Opt.Trace
		n.frameDoneFn = n.frameDone
		if net.Opt.RED && n.ID != borderID {
			n.red = mesh.NewRED()
		}
		if n.ID == borderID && net.Host != nil {
			n.wire = newWireEnd(net.Eng, net.Host)
		}
	} else {
		cfg.SendBufSize = HostBufSize
		cfg.RecvBufSize = HostBufSize
		n.wire = newWireEnd(net.Eng, net.Border())
	}
	output := n.SendPacket // one method value for both transports
	n.tcp = tcplp.MakeStack(net.Eng, n.Addr, cfg)
	n.tcp.Output = output
	n.tcp.PoolEncode = true // SendPacket consumes payloads synchronously
	n.tcp.Trace, n.tcp.TraceNode = net.Opt.Trace, n.ID
	n.udp = udp.MakeStack(n.Addr)
	n.udp.Output = output
}

// Stats returns the node's IP-layer counters, all zero while the node is
// dormant. Reading them does not wake it.
func (n *Node) Stats() NodeStats {
	if n.layers == nil {
		return NodeStats{}
	}
	return n.stats
}

// MacStats returns the MAC's counters, all zero while the node is
// dormant. Reading them does not wake it.
func (n *Node) MacStats() mac.Stats {
	if n.layers == nil {
		return mac.Stats{}
	}
	return n.mac.Stats
}

// TCPStats returns the TCP stack's counters, all zero while the node is
// dormant. Reading them does not wake it.
func (n *Node) TCPStats() tcplp.StackStats {
	if n.layers == nil {
		return tcplp.StackStats{}
	}
	return n.tcp.Stats
}

// LinkAddr returns the node's 802.15.4 address.
func (n *Node) LinkAddr() phy.Addr { return phy.AddrFromID(n.ID) }

// Eng returns the simulation engine.
func (n *Node) Eng() *sim.Engine { return n.Net.Eng }

// ---- transmit path ----

// SendPacket routes and transmits a locally originated IPv6 packet.
func (n *Node) SendPacket(pkt *ip6.Packet) {
	n.awake().stats.PacketsSent++
	n.route(pkt, false)
}

// route moves pkt one step: local delivery, onto the wire, or onto the
// radio toward the next hop. forwarded marks transit packets (hop-limit
// accounting and RED apply to those).
func (n *Node) route(pkt *ip6.Packet, forwarded bool) {
	if pkt.Dst == n.Addr {
		n.deliver(pkt)
		return
	}
	if forwarded {
		if pkt.HopLimit <= 1 {
			n.stats.HopLimitDrops++
			n.emitIPDrop(pkt.JID, obs.CauseHopLimit, int64(pkt.HopLimit))
			return
		}
		pkt.HopLimit--
	}
	dstID, ok := pkt.Dst.ID()
	if !ok {
		n.emitIPDrop(pkt.JID, obs.CauseNoRoute, 0)
		return
	}
	// Toward the wired host (or from it): the border router bridges.
	if n.wire != nil && (n.Radio == nil || dstID == HostID) {
		if n.Radio != nil { // we are the border router, egress to wire
			if n.dropAtBorder(pkt) {
				return
			}
		}
		n.wire.send(pkt)
		return
	}
	next, ok := n.nextHop(dstID)
	if !ok {
		n.emitIPDrop(pkt.JID, obs.CauseNoRoute, 0)
		return
	}
	if forwarded && n.red != nil {
		switch n.red.OnArrival(n.qLen, pkt.ECN() == ip6.ECT0, n.Eng().Rand()) {
		case mesh.REDDrop:
			n.stats.REDDrops++
			n.emitIPDrop(pkt.JID, obs.CauseRED, int64(n.qLen))
			return
		case mesh.REDMark:
			n.stats.REDMarks++
			pkt.SetECN(ip6.CE)
		}
	}
	// The compressed header lives on this call's stack: AppendFragments
	// copies it into the first frame, so nothing outlives route.
	var scratch [sixlowpan.MaxCompressedHeaderLen]byte
	chdr := sixlowpan.AppendCompressHeader(scratch[:0], &pkt.Header)
	it := n.newOutItem(phy.AddrFromID(next), pkt.JID)
	it.frames = n.frag.AppendFragments(it.frames, chdr, pkt.Payload, phy.MaxMACPayload)
	if tr := n.Net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: n.Eng().Now(), Kind: obs.FragEmit, Node: n.ID,
			A: int64(len(it.frames)), Len: len(chdr) + len(pkt.Payload), J: pkt.JID})
	}
	n.enqueue(it)
}

// nextHop returns the neighbour toward node dst on the static routes;
// host-bound traffic inside the mesh routes toward the border router.
func (n *Node) nextHop(dst int) (int, bool) {
	if dst == HostID {
		dst = borderID
	}
	return n.Net.Routes.NextHop(n.ID, dst)
}

// newOutItem takes an item with an empty frame list off the network's
// free list.
func (n *Node) newOutItem(hop phy.Addr, jid int64) *outItem {
	net := n.Net
	it := net.outFree
	if it == nil {
		it = &outItem{}
		net.outItems++
	} else {
		net.outFree, it.link = it.link, nil
	}
	it.hop, it.idx, it.jid = hop, 0, jid
	return it
}

// newRelayItem queues the single frame of a relayed fragment.
func (n *Node) newRelayItem(fwd []byte, hop phy.Addr, jid int64) *outItem {
	it := n.newOutItem(hop, jid)
	it.frames = append(it.frames, fwd)
	return it
}

// freeOutItem recycles an item whose frames have all been released.
func (n *Node) freeOutItem(it *outItem) {
	it.frames = it.frames[:0]
	it.link, n.Net.outFree = n.Net.outFree, it
}

// emitIPDrop records a network-layer drop with its cause.
func (n *Node) emitIPDrop(jid int64, cause obs.Cause, a int64) {
	if tr := n.Net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: n.Eng().Now(), Kind: obs.IPDrop, Node: n.ID, A: a, J: jid, Cause: cause})
	}
}

func (n *Node) dropAtBorder(pkt *ip6.Packet) bool {
	if n.DropFilter != nil && n.DropFilter(pkt) {
		n.stats.BorderDrops++
		n.emitIPDrop(pkt.JID, obs.CauseBorderFilter, 0)
		return true
	}
	return false
}

func (n *Node) enqueue(it *outItem) {
	if n.qLen >= n.Net.Opt.QueueCap {
		n.stats.QueueDrops++
		if tr := n.Net.Opt.Trace; tr != nil {
			tr.Emit(obs.Event{T: n.Eng().Now(), Kind: obs.QueueDrop, Node: n.ID, A: int64(n.qLen), J: it.jid, Cause: obs.CauseQueueOverflow})
		}
		n.releaseFrames(it, it.idx)
		n.freeOutItem(it)
		return
	}
	if n.qTail == nil {
		n.qHead = it
	} else {
		n.qTail.link = it
	}
	n.qTail = it
	n.qLen++
	n.pump()
}

// releaseFrames recycles an item's fragment buffers from index from
// onward (the link layer copies each frame into its own wire buffer at
// load time, so a frame whose MAC callback has fired is no longer
// referenced).
func (n *Node) releaseFrames(it *outItem, from int) {
	for i := from; i < len(it.frames); i++ {
		n.frag.Release(it.frames[i])
		it.frames[i] = nil
	}
}

// pump drains the datagram queue one frame at a time; a link-layer
// failure abandons the rest of the datagram (the fragments would be
// useless, §6.1).
func (n *Node) pump() {
	if n.sending || n.qHead == nil {
		return
	}
	n.sending = true
	it := n.qHead
	n.CPU.ChargeFrameTx()
	n.mac.SendJID(it.hop, it.frames[it.idx], it.jid, n.frameDoneFn)
}

// frameDone is the MAC's verdict on the frame pump last handed it:
// frame idx of the datagram at the head of the queue (one frame is
// outstanding at a time, so the callback needs no state of its own).
func (n *Node) frameDone(status mac.TxStatus) {
	it := n.qHead
	if status != mac.TxOK {
		n.stats.LinkFailures++
		// Abandoning the datagram: the sent frame and the never-sent
		// tail all go back to the pool.
		n.releaseFrames(it, it.idx)
		n.popAndContinue()
		return
	}
	n.frag.Release(it.frames[it.idx])
	it.frames[it.idx] = nil
	it.idx++
	if it.idx >= len(it.frames) {
		n.popAndContinue()
		return
	}
	n.sending = false
	n.pump()
}

// popAndContinue drops the finished datagram at the head of the queue.
func (n *Node) popAndContinue() {
	it := n.qHead
	if n.qHead = it.link; n.qHead == nil {
		n.qTail = nil
	}
	n.qLen--
	n.freeOutItem(it)
	n.sending = false
	n.pump()
}

// ReassemblyTimeouts returns datagrams abandoned for missing fragments.
func (n *Node) ReassemblyTimeouts() uint64 {
	if n.layers == nil || n.reasm == nil {
		return 0
	}
	return n.reasm.TimedOut
}

// LossEvents totals the ways this node loses whole datagrams: link-layer
// failures, queue overflows, RED drops, hop-limit expiry, and
// reassembly timeouts.
func (n *Node) LossEvents() uint64 {
	st := n.Stats()
	return st.LinkFailures + st.QueueDrops + st.REDDrops +
		st.HopLimitDrops + n.ReassemblyTimeouts()
}

// ---- receive path ----

func (n *Node) onFrame(f *phy.Frame) {
	n.CPU.ChargeFrameRx()
	if n.Sleep != nil {
		n.Sleep.FrameDelivered(f.FramePending)
	}
	payload := f.Payload
	if len(payload) == 0 {
		return
	}
	// RED needs whole packets, so its relays reassemble each one
	// (Appendix A); every other relay forwards fragments as they come.
	if !n.Net.Opt.RED && n.tryForwardFragment(f.Src, payload, f.J) {
		return
	}
	pkt, err := n.reassembler().Input(f.Src, payload, f.J)
	if err != nil || pkt == nil {
		return
	}
	if pkt.Dst == n.Addr {
		n.deliver(pkt)
		return
	}
	// A whole packet to relay: a RED relay's, or a host-bound one the
	// border router bridges onto the wire.
	n.stats.PacketsFwd++
	n.route(pkt, true)
}

// reassembler returns the node's reassembler, created by the first frame
// that needs one: a relay woken to forward fragments never terminates a
// datagram.
func (n *Node) reassembler() *sixlowpan.Reassembler {
	if n.reasm == nil {
		n.reasm = sixlowpan.NewReassembler(n.Eng())
		n.reasm.Trace, n.reasm.Node = n.Net.Opt.Trace, n.ID
	}
	return n.reasm
}

// tryForwardFragment relays a fragment that is not addressed to us,
// returning true if it consumed the frame. The first fragment (or an
// unfragmented datagram) carries the compressed IPv6 header: the relay
// peeks at it, decrements the hop limit in place, re-tags the datagram,
// and records the mapping so later fragments follow without reassembly.
// The fragment that ends the datagram takes the mapping with it: each hop
// hands a datagram's frames on in order, one at a time, and drops the
// rest of a datagram whose frame it failed to deliver, so nothing of the
// datagram comes after it (its duplicates stop at the MAC). Expiry is for
// a datagram whose last fragment never comes.
func (n *Node) tryForwardFragment(src phy.Addr, payload []byte, jid int64) bool {
	kind := sixlowpan.Classify(payload)
	switch kind {
	case sixlowpan.KindUnfragmented, sixlowpan.KindFrag1:
		iphcOff := 0
		if kind == sixlowpan.KindFrag1 {
			iphcOff = sixlowpan.Frag1HeaderLen
		}
		var h ip6.Header
		if _, err := sixlowpan.DecompressHeaderInto(&h, payload[iphcOff:]); err != nil {
			return false
		}
		if h.Dst == n.Addr {
			return false // ours: reassemble locally
		}
		if n.wire != nil && n.addrIsHost(h.Dst) {
			return false // border router reassembles host-bound traffic
		}
		dstID, ok := h.Dst.ID()
		if !ok {
			return false
		}
		next, ok := n.nextHop(dstID)
		if !ok {
			n.emitIPDrop(jid, obs.CauseNoRoute, 0)
			return true // unroutable: swallow
		}
		if hl, ok := sixlowpan.DecrementHopLimit(payload[iphcOff:]); !ok || hl == 0 {
			n.stats.HopLimitDrops++
			n.emitIPDrop(jid, obs.CauseHopLimit, 0)
			return true
		}
		fwd := n.frag.Clone(payload)
		if kind == sixlowpan.KindFrag1 {
			fi, err := sixlowpan.ParseFragment(fwd)
			if err != nil {
				return true
			}
			newTag := n.frag.NextTag()
			if err := sixlowpan.RewriteTag(fwd, newTag); err != nil {
				return true
			}
			n.fwdInsert(fwdEntry{
				src:     src,
				tag:     fi.Tag,
				newTag:  newTag,
				next:    phy.AddrFromID(next),
				expires: n.Eng().Now().Add(sixlowpan.DefaultReassemblyTimeout),
			})
		}
		n.stats.FragmentsFwd++
		n.enqueue(n.newRelayItem(fwd, phy.AddrFromID(next), jid))
		return true

	case sixlowpan.KindFragN:
		fi, err := sixlowpan.ParseFragment(payload)
		if err != nil {
			return false
		}
		i := n.fwdFind(src, fi.Tag)
		if i < 0 {
			return false // ours, or the FRAG1 was lost — reassembler sorts it out
		}
		entry := n.fwdCache[i]
		if fi.Offset+len(payload)-fi.HeaderLen >= int(fi.DatagramSize) {
			n.fwdRemove(i)
		}
		fwd := n.frag.Clone(payload)
		if err := sixlowpan.RewriteTag(fwd, entry.newTag); err != nil {
			return true
		}
		n.stats.FragmentsFwd++
		n.enqueue(n.newRelayItem(fwd, entry.next, jid))
		return true
	}
	return false
}

// fwdInsert records a datagram's mapping, in place of a live one with
// the same key.
func (n *Node) fwdInsert(e fwdEntry) {
	if i := n.fwdFind(e.src, e.tag); i >= 0 {
		n.fwdCache[i] = e
		return
	}
	n.fwdCache = append(n.fwdCache, e)
	n.fwdPeak = max(n.fwdPeak, len(n.fwdCache))
}

// fwdFind returns the index of the live entry for (src, tag), or -1. It
// removes every expired entry it passes, so an entry is gone by the first
// search at or after its expiry, and one that finds nothing leaves only
// live entries.
func (n *Node) fwdFind(src phy.Addr, tag uint16) int {
	now := n.Eng().Now()
	for i := 0; i < len(n.fwdCache); {
		switch e := &n.fwdCache[i]; {
		case now >= e.expires:
			n.fwdRemove(i)
		case e.src == src && e.tag == tag:
			return i
		default:
			i++
		}
	}
	return -1
}

// fwdRemove drops entry i, moving the last entry into its place.
func (n *Node) fwdRemove(i int) {
	last := len(n.fwdCache) - 1
	n.fwdCache[i] = n.fwdCache[last]
	n.fwdCache = n.fwdCache[:last]
}

func (n *Node) addrIsHost(a ip6.Addr) bool {
	id, ok := a.ID()
	return ok && id == HostID
}

// deliver hands a packet addressed to this node to its transports.
func (n *Node) deliver(pkt *ip6.Packet) {
	n.stats.PacketsDelivered++
	n.CPU.ChargeSegment()
	n.CPU.ChargeBytes(len(pkt.Payload))
	switch pkt.NextHeader {
	case ip6.ProtoTCP:
		n.TCP().Input(pkt)
	case ip6.ProtoUDP:
		n.UDP().Input(pkt)
	}
}
