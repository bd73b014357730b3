package scenario

import (
	"fmt"
	"math"

	"tcplp/internal/gateway"
	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp/cc"
	"tcplp/internal/uip"
)

// Resource limits. A spec is outside input: what it asks the process to
// allocate is bounded here, by Validate, so a hostile or mistyped file
// gets an error naming the field and the limit instead of the OOM
// killer. Each is far above anything checked in (city_100k.json is
// 100 000 nodes; the largest example grid is 60 cells, 5 seeds).
const (
	maxNodes = 1 << 20 // mesh nodes one cell may instantiate
	maxCells = 1 << 16 // cells one sweep spec may expand to
	maxSeeds = 1 << 12 // seeds one spec may list
	// Bytes of send (and of receive) buffer one connection may get:
	// window_segs × the MSS seg_frames derives, counted at the most a
	// frame can carry (phy.MaxMACPayload).
	maxConnBuf  = 1 << 20
	maxQueueCap = 1 << 16 // net.queue_cap, gateway.wan.queue_cap
	// Neighbour-list entries (a link counted from both ends) a topology's
	// adjacency would hold by adjacencyEntries' estimate: every node the
	// node limit admits at the mean degree the city examples are built for
	// (density 16). No such list is built; the count bounds the work of the
	// routes' BFS, which scans every node's decode range through the cell
	// grid, and the channel's cached neighbour lists, which hold each link
	// at its sense range. city_100k.json estimates at 1.6 M (7.9 M real:
	// its placement clusters round the border router); a 16 000-node star,
	// whose leaves each decode 41% of the others, at 105 M.
	maxAdjacency = maxNodes * 16
)

// adjacencyEntries estimates, from the size fields alone, how many
// neighbour-list entries the topology's adjacency (mesh.Topology.Adjacency)
// would hold.
func (t TopologySpec) adjacencyEntries() float64 {
	n := float64(t.nodeCount())
	switch t.Kind {
	case TopoStar:
		// mesh.Star's decode range is 1.2 radii: the hub reaches every
		// leaf, and a leaf every leaf within 2·asin(0.6) ≈ 73.7° of it.
		leaves := n - 1
		return 2*leaves + leaves*leaves*2*math.Asin(0.6)/math.Pi
	case TopoRandomGeometric:
		density := t.Density
		if density == 0 {
			density = mesh.DefaultDensity
		}
		// The target mean degree; once the field clamps to one range
		// across, every node decodes nearly every other.
		return n * math.Min(density, n-1)
	}
	return 2 * n // a path (chain, twinleaf), or the 15-node office
}

// datagramSize is the uncompressed IPv6 datagram one full TCP segment of
// segFrames frames makes — what 6LoWPAN's FRAG1/FRAGN headers must be able
// to state in their 11-bit datagram_size (sixlowpan.MaxDatagramSize).
func datagramSize(segFrames int) int {
	return ip6.HeaderLen + stack.SegmentSizing(segFrames, true).SegmentPayload
}

// maxSegFrames is the largest seg_frames whose datagram fits that field,
// worked out from the frame and header sizes rather than written down.
var maxSegFrames = func() int {
	f := 1
	for datagramSize(f+1) <= sixlowpan.MaxDatagramSize {
		f++
	}
	return f
}()

// maxWindowSegs is the largest window, in segments, the per-connection
// buffer limit allows at segFrames frames per segment.
func maxWindowSegs(segFrames int) int {
	return maxConnBuf / phy.MaxMACPayload / segFrames
}

// nodeCount returns the mesh node count the topology will instantiate.
func (t TopologySpec) nodeCount() int {
	switch t.Kind {
	case TopoChain, TopoStar, TopoRandomGeometric:
		return t.Nodes
	case TopoOffice:
		return 15
	case TopoTwinLeaf:
		return t.PathHops + 2
	}
	return 0
}

// sizeField names the topology field(s) that set nodeCount, by kind.
var sizeField = map[string]string{
	TopoChain: "nodes", TopoStar: "nodes", TopoRandomGeometric: "nodes",
	TopoTwinLeaf: "path_hops",
}

// Validate checks the spec for structural errors — unknown kinds,
// out-of-range node ids, bad variants — so a Runner never panics
// mid-simulation on a malformed file.
func (s *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if len(s.Seeds) > maxSeeds {
		return bad("seeds: %d entries, the limit is %d", len(s.Seeds), maxSeeds)
	}
	if s.Sweep != nil && !s.Sweep.empty() {
		// A sweep spec is checked axis-by-axis, then cell-by-cell: the
		// base topology may be incomplete (a hops axis supplies the node
		// count), so only the expanded cells are fully validated.
		if err := s.validateSweep(); err != nil {
			return err
		}
		for _, c := range s.Expand() {
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	}
	if s.Topology.Spacing < 0 {
		return bad("topology: negative spacing")
	}
	switch s.Topology.Kind {
	case TopoChain, TopoStar:
		if s.Topology.Nodes < 2 {
			return bad("topology %s needs nodes >= 2", s.Topology.Kind)
		}
	case TopoOffice:
	case TopoTwinLeaf:
		if s.Topology.PathHops < 1 {
			return bad("topology twinleaf needs path_hops >= 1")
		}
	case TopoRandomGeometric:
		if s.Topology.Nodes < 2 {
			return bad("topology random_geometric needs nodes >= 2")
		}
		if s.Topology.Density < 0 {
			return bad("topology random_geometric: negative density")
		}
	default:
		return bad("unknown topology kind %q (have chain, star, office, twinleaf, random_geometric)", s.Topology.Kind)
	}
	n := s.Topology.nodeCount()
	if n > maxNodes || n < 0 { // < 0: path_hops + 2 wrapped
		return bad("topology %s: %s asks for more than %d nodes (the limit)", s.Topology.Kind, sizeField[s.Topology.Kind], maxNodes)
	}
	if len(s.Flows) == 0 {
		return bad("no flows")
	}
	if s.Net.SegFrames < 0 {
		return bad("net: negative seg_frames")
	}
	if s.Net.WindowSegs < 0 {
		return bad("net: negative window_segs")
	}
	opt := s.options() // the window and segment size the run arrives at
	if opt.WindowSegs > maxWindowSegs(opt.SegFrames) {
		return bad("net: window_segs %d × seg_frames %d asks for more than %d bytes of buffer per connection (the limit)",
			opt.WindowSegs, opt.SegFrames, maxConnBuf)
	}
	// Reached by net.seg_frames and a sweep's seg_frames axis alike: each
	// lands in the cell's net block.
	if opt.SegFrames > maxSegFrames {
		return bad("net: seg_frames %d makes a %d-byte datagram; 6LoWPAN fragments describe at most %d bytes, so seg_frames is at most %d",
			opt.SegFrames, datagramSize(opt.SegFrames), sixlowpan.MaxDatagramSize, maxSegFrames)
	}
	checkRef := func(r NodeRef) error {
		if r.Host || r.End || r.Gateway {
			return nil
		}
		if r.ID < 0 || r.ID >= n {
			return bad("node %d out of range (topology has %d nodes)", r.ID, n)
		}
		return nil
	}
	gwSrc := map[string]int{}  // gateway-flow source → flow index
	perDevice, gwFlows := 0, 0 // gateway-flow census
	for i, f := range s.Flows {
		if err := checkRef(f.From); err != nil {
			return err
		}
		if err := checkRef(f.To); err != nil {
			return err
		}
		proto := f.Protocol
		if proto == "" {
			proto = protoTCP
		}
		if f.From == f.To {
			return bad("flow %d: from == to (%s)", i, f.From)
		}
		if f.From.Host && f.To.Host {
			return bad("flow %d: both endpoints are the host", i)
		}
		if f.From.Gateway {
			return bad("flow %d: \"gateway\" is a sink reference (devices send up to the gateway tier)", i)
		}
		if f.To.Gateway {
			if s.Gateway == nil {
				return bad("flow %d: \"to\": \"gateway\" needs a gateway block", i)
			}
			if f.From.Host {
				return bad("flow %d: gateway flows originate at mesh devices, not the host", i)
			}
			if proto != protoTCP && proto != protoCoAP {
				return bad("flow %d: gateway flows need protocol tcp or coap, not %q", i, proto)
			}
			switch f.Pattern {
			case "", PatternAnemometer:
			default:
				return bad("flow %d: gateway flows carry telemetry (anemometer), not pattern %q", i, f.Pattern)
			}
			// The gateway credits deliveries per source address; two flows
			// from one device would collide in its registration table.
			gwFlows++
			if f.PerDevice {
				perDevice++
			} else if prev, dup := gwSrc[f.From.String()]; dup {
				return bad("flows %d and %d both terminate device %s at the gateway (one gateway flow per device)", prev, i, f.From)
			} else {
				gwSrc[f.From.String()] = i
			}
		}
		if f.PerDevice && !f.To.Gateway {
			return bad("flow %d: per_device needs \"to\": \"gateway\"", i)
		}
		if f.Stride < 0 {
			return bad("flow %d: negative stride", i)
		}
		if f.Stride > 1 && !f.PerDevice {
			return bad("flow %d: stride only thins a per_device template", i)
		}
		if _, err := cc.Parse(f.Variant); err != nil {
			return bad("flow %d: %v", i, err)
		}
		if f.Profile != "" {
			if _, err := uip.ParseProfile(f.Profile); err != nil {
				return bad("flow %d: %v", i, err)
			}
		}
		switch f.Pattern {
		case "", PatternBulk, PatternAnemometer:
		default:
			return bad("flow %d: unknown pattern %q (have bulk, anemometer)", i, f.Pattern)
		}
		switch proto {
		case protoTCP:
		case protoUDP, protoCoAP:
			// Non-TCP transports carry telemetry only; the TCP-specific
			// knobs have nothing to bind to.
			if f.Pattern == PatternBulk {
				return bad("flow %d: pattern %q needs protocol tcp (udp/coap flows carry the anemometer pattern)", i, f.Pattern)
			}
			if f.Variant != "" || f.Profile != "" || f.Trace {
				return bad("flow %d: variant/profile/trace are TCP knobs; protocol is %q", i, proto)
			}
		default:
			return bad("flow %d: unknown protocol %q (have coap, tcp, udp)", i, proto)
		}
		if proto != protoCoAP && (f.Confirmable != nil || f.RTO != "") {
			return bad("flow %d: confirmable/rto are coap knobs; protocol is %q", i, proto)
		}
		switch f.RTO {
		case "", "default", "cocoa":
		default:
			return bad("flow %d: unknown rto policy %q (have default, cocoa)", i, f.RTO)
		}
		if f.Interval < 0 {
			return bad("flow %d: negative interval", i)
		}
		if f.Batch < 0 {
			return bad("flow %d: negative batch", i)
		}
		// The sensor drains only once batch readings are queued, so a
		// batch its queue cannot hold would never send.
		if limit := sensorQueueCap(proto); f.Batch > limit {
			return bad("flow %d: batch %d is more than the %d readings the sensor queues over %s, so it would never send",
				i, f.Batch, limit, proto)
		}
	}
	if perDevice > 1 || (perDevice > 0 && gwFlows > perDevice) {
		return bad("a per_device gateway template must be the only gateway flow (its replicas cover every device)")
	}
	// Every direct flow listens on its own port (80 + its index in start
	// order), but one on a gateway's terminator port on node 0 would
	// displace the shared listener. Gateway flows share the terminators
	// by design. The walk is the run's own, so every port is the one the
	// run uses.
	err := s.eachStartedFlow(func(i int, f FlowSpec, _ bool) error {
		if s.Gateway != nil && !f.To.Gateway && !f.To.Host && !f.To.End && f.To.ID == 0 &&
			(f.port == gateway.DefaultTCPPort || f.port == gateway.DefaultCoAPPort) {
			return bad("started flow %d: port %d on node 0 is a gateway terminator port", i, f.port)
		}
		return nil
	})
	if err != nil {
		return err
	}
	roles := map[int]bool{} // node ids with a Nodes entry
	for _, ns := range s.Nodes {
		if ns.ID <= 0 || ns.ID >= n {
			return bad("node spec id %d out of range (1..%d)", ns.ID, n-1)
		}
		// Two roles for one node would build two sleep controllers that
		// poll the same parent and fight over the radio's idle state.
		if roles[ns.ID] {
			return bad("node %d is listed twice in nodes", ns.ID)
		}
		roles[ns.ID] = true
		if ns.SleepInterval < 0 || (ns.FastInterval != nil && *ns.FastInterval < 0) {
			return bad("node %d: negative sleep/fast interval", ns.ID)
		}
	}
	if a := s.AllNodes; a != nil {
		if a.SleepInterval < 0 || (a.FastInterval != nil && *a.FastInterval < 0) {
			return bad("all_nodes: negative sleep/fast interval")
		}
	}
	if g := s.Gateway; g != nil {
		if g.MaxConns < 0 {
			return bad("gateway: negative max_conns")
		}
		if g.WAN.BandwidthKbps < 0 {
			return bad("gateway: negative wan bandwidth_kbps")
		}
		if g.WAN.RTT < 0 {
			return bad("gateway: negative wan rtt")
		}
		if g.WAN.Loss < 0 || g.WAN.Loss >= 1 {
			return bad("gateway: wan loss %v out of range [0,1)", g.WAN.Loss)
		}
		if g.WAN.QueueCap < 0 || g.WAN.QueueCap > maxQueueCap {
			return bad("gateway: wan queue_cap %d out of range [0,%d]", g.WAN.QueueCap, maxQueueCap)
		}
	}
	if s.Net.QueueCap < 0 || s.Net.QueueCap > maxQueueCap {
		return bad("net: queue_cap %d out of range [0,%d]", s.Net.QueueCap, maxQueueCap)
	}
	if s.Net.PER < 0 || s.Net.PER >= 1 {
		return bad("per %v out of range [0,1)", s.Net.PER)
	}
	if s.Net.InjectedLoss < 0 || s.Net.InjectedLoss >= 1 {
		return bad("injected_loss %v out of range [0,1)", s.Net.InjectedLoss)
	}
	if s.Net.Interference < 0 {
		return bad("negative interference peak")
	}
	if s.Net.RetryDelay != nil && *s.Net.RetryDelay < 0 {
		return bad("negative retry_delay")
	}
	if s.Duration < 0 || s.Warmup < 0 {
		return bad("negative duration")
	}
	if s.DCSample < 0 || s.IdleWindow < 0 {
		return bad("negative dc_sample/idle_window")
	}
	// Checked last, so that a fleet too dense to build still reports the
	// port it would have got wrong first. Only a star or a random field
	// can get here: a path of maxNodes nodes is 2 M entries.
	if links := s.Topology.adjacencyEntries(); links > maxAdjacency {
		size := fmt.Sprintf("nodes %d", n)
		if s.Topology.Kind == TopoRandomGeometric {
			size += fmt.Sprintf(" at density %g", s.Topology.Density)
		}
		return bad("topology %s: %s make an adjacency of about %.0f neighbour entries, more than %d (the limit)",
			s.Topology.Kind, size, links, maxAdjacency)
	}
	return nil
}
