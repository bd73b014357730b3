// Package obs is the cross-layer observability subsystem: typed trace
// events, frame capture and exporters (NDJSON, pcapng). The per-layer
// metrics an NDJSON "metrics" record carries are summed by the scenario
// runner from each layer's own counters (Result.Layers).
//
// The design constraint is zero overhead when disabled: every layer
// holds a *Trace pointer that is nil by default, and every hook site is
// guarded (`if tr != nil`). Events are small flat structs passed by
// value, so the disabled path costs one predictable branch and no
// allocations. Hooks and sinks only read state: they never draw from the
// engine RNG or schedule events, and neither do the periodic metric
// samples, which the scenario runner takes between engine slices. So
// enabling any of them leaves a run's result bit-identical, its event
// count included.
package obs

import (
	"tcplp/internal/sim"
)

// Kind identifies what a trace event records. The values are stable
// export identifiers (they appear in NDJSON output); append only.
type Kind uint8

// Event kinds, grouped by layer.
const (
	KindUnknown Kind = iota

	// Physical layer.
	PhyTx        // frame put on air; Len = frame bytes, A = air time (µs)
	PhyRxDrop    // reception lost to PER or a state change; A = 1 if PER draw
	PhyCollision // reception corrupted by an overlapping transmission

	// MAC layer.
	MacBackoff  // CSMA backoff begins; A = backoff exponent, B = slots drawn
	MacRetry    // link-layer retransmission; A = attempt number
	MacCSMAFail // CSMA gave up (channel never clear); A = busy count
	MacDrop     // frame dropped after exhausting retries; A = status code

	// 6LoWPAN adaptation layer.
	FragEmit        // datagram fragmented for transmission; A = fragment count, Len = datagram bytes
	FragReassembled // datagram reassembled from fragments; A = tag, Len = datagram bytes
	FragTimeout     // reassembly abandoned; A = tag

	// Network layer (stack).
	QueueDrop // outbound queue tail drop; A = queue length

	// TCP.
	TCPSend    // segment transmitted; A = relative seq, Len = payload bytes
	TCPRecv    // segment received; Len = payload bytes
	TCPRTO     // retransmission timeout fired; A = backoff shift, B = RTO (µs)
	TCPFastRtx // fast retransmit triggered (3 dupacks)
	TCPCwnd    // cwnd/ssthresh changed; A = cwnd, B = ssthresh
	TCPState   // state transition; A = old state, B = new state

	// CoAP.
	CoAPRtx // confirmable retransmission; A = retry number, B = new RTO (µs)
	CoAPRTO // RTO policy updated after a response; A = RTT sample since first tx (µs), B = overall RTO estimate (µs; 0 when the policy keeps none)

	// Gateway connection table.
	GwAdmit // device admitted to the table; A = table size after
	GwEvict // entry evicted; A = table size after

	// WAN backhaul.
	WanEnqueue // message accepted onto the link; Len = bytes, A = queue depth
	WanDrop    // message dropped; A = 1 for queue tail drop, 2 for in-flight loss

	// Network layer (stack), continued. Appended after the original
	// block because Kind values are stable export identifiers.
	IPDrop // packet dropped before queueing; Cause says why, A = hop limit or queue length where relevant

	// Journey (causal per-reading tracing). Journey events are keyed by
	// the reading's source node (Node) and sequence number (A); packet-
	// level events carry the journey packet id in J.
	JourneyGen     // reading generated by the sensor; A = reading seq
	JourneyEnq     // reading fully accepted by the transport; A = seq, B = acceptance index on the stream
	JourneySeg     // TCP data segment transmitted; J = packet id, A = relative stream offset of first payload byte, Len = payload bytes
	JourneyData    // datagram carrying readings handed to UDP/CoAP; J = packet id, A = first seq, B = reading count, Len = 1 when the transfer is reliable (CoAP CON)
	JourneyMesh    // reading crossed the mesh (reached gateway or sink); A = seq
	JourneyWanEnq  // reading accepted onto the WAN backhaul; A = seq
	JourneyDeliver // reading credited end-to-end; A = seq
	JourneyLoss    // reading terminally lost; A = seq, Cause = why

	kindCount // sentinel
)

var kindNames = [...]string{
	KindUnknown:     "unknown",
	PhyTx:           "phy_tx",
	PhyRxDrop:       "phy_rx_drop",
	PhyCollision:    "phy_collision",
	MacBackoff:      "mac_backoff",
	MacRetry:        "mac_retry",
	MacCSMAFail:     "mac_csma_fail",
	MacDrop:         "mac_drop",
	FragEmit:        "frag_emit",
	FragReassembled: "frag_reassembled",
	FragTimeout:     "frag_timeout",
	QueueDrop:       "queue_drop",
	TCPSend:         "tcp_send",
	TCPRecv:         "tcp_recv",
	TCPRTO:          "tcp_rto",
	TCPFastRtx:      "tcp_fast_rtx",
	TCPCwnd:         "tcp_cwnd",
	TCPState:        "tcp_state",
	CoAPRtx:         "coap_rtx",
	CoAPRTO:         "coap_rto",
	GwAdmit:         "gw_admit",
	GwEvict:         "gw_evict",
	WanEnqueue:      "wan_enqueue",
	WanDrop:         "wan_drop",
	IPDrop:          "ip_drop",
	JourneyGen:      "journey_gen",
	JourneyEnq:      "journey_enq",
	JourneySeg:      "journey_seg",
	JourneyData:     "journey_data",
	JourneyMesh:     "journey_mesh",
	JourneyWanEnq:   "journey_wan_enq",
	JourneyDeliver:  "journey_deliver",
	JourneyLoss:     "journey_loss",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Layer returns the protocol layer a kind belongs to, for event-file
// filtering (`-events-layers`). The names match the scenario runner's
// per-layer metric keys (Result.Layers) where both exist.
func (k Kind) Layer() string {
	switch k {
	case PhyTx, PhyRxDrop, PhyCollision:
		return "phy"
	case MacBackoff, MacRetry, MacCSMAFail, MacDrop:
		return "mac"
	case FragEmit, FragReassembled, FragTimeout:
		return "sixlowpan"
	case QueueDrop, IPDrop:
		return "ip"
	case TCPSend, TCPRecv, TCPRTO, TCPFastRtx, TCPCwnd, TCPState:
		return "tcp"
	case CoAPRtx, CoAPRTO:
		return "coap"
	case GwAdmit, GwEvict:
		return "gateway"
	case WanEnqueue, WanDrop:
		return "wan"
	case JourneyGen, JourneyEnq, JourneySeg, JourneyData,
		JourneyMesh, JourneyWanEnq, JourneyDeliver, JourneyLoss:
		return "journey"
	}
	return "unknown"
}

// IsDrop reports whether a kind records a packet or reading being
// dropped. Every event of a drop kind must carry a nonzero Cause — the
// taxonomy-completeness contract the conformance checker enforces.
func (k Kind) IsDrop() bool {
	switch k {
	case PhyRxDrop, PhyCollision, MacDrop, FragTimeout,
		QueueDrop, IPDrop, WanDrop, JourneyLoss:
		return true
	}
	return false
}

// Cause classifies why a packet or reading was dropped. Values are
// stable export identifiers; append only.
type Cause uint8

// Drop causes, covering every layer that can discard a packet or a
// reading.
const (
	CauseNone              Cause = iota
	CauseAppQueueFull            // sensor reading queue at capacity
	CauseQueueOverflow           // outbound interface queue tail drop
	CauseCSMAFail                // CSMA never found the channel clear
	CauseRetriesExhausted        // link-layer retries exhausted without an ACK
	CausePER                     // reception corrupted by the packet-error-rate draw
	CauseCollision               // reception corrupted by an overlapping transmission
	CauseReassemblyTimeout       // 6LoWPAN reassembly abandoned
	CauseHopLimit                // IPv6 hop limit exhausted
	CauseRED                     // early drop by the RED queue policy
	CauseBorderFilter            // border router refused an off-mesh destination
	CauseNoRoute                 // no next hop toward the destination
	CauseWanQueueDrop            // WAN backhaul queue tail drop
	CauseWanLoss                 // WAN in-flight loss draw
	CauseGwEvict                 // gateway connection-table eviction discarded pending readings
	CauseCoAPGiveUp              // CoAP confirmable exchange exhausted retransmissions

	causeCount // sentinel
)

var causeNames = [...]string{
	CauseNone:              "",
	CauseAppQueueFull:      "app_queue_full",
	CauseQueueOverflow:     "queue_overflow",
	CauseCSMAFail:          "csma_fail",
	CauseRetriesExhausted:  "retries_exhausted",
	CausePER:               "per",
	CauseCollision:         "collision",
	CauseReassemblyTimeout: "reassembly_timeout",
	CauseHopLimit:          "hop_limit",
	CauseRED:               "red",
	CauseBorderFilter:      "border_filter",
	CauseNoRoute:           "no_route",
	CauseWanQueueDrop:      "wan_queue_drop",
	CauseWanLoss:           "wan_loss",
	CauseGwEvict:           "gw_evict",
	CauseCoAPGiveUp:        "coap_give_up",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "invalid"
}

// Event is one structured trace record. It is a flat value type so the
// emit path allocates nothing; A and B carry kind-specific integers
// (documented on each Kind) and Len a byte count where one applies.
type Event struct {
	T    sim.Time // simulation time (µs)
	Kind Kind
	Node int // originating node id (-1 when not node-scoped)
	A, B int64
	Len  int

	// J is the journey packet id (0 = untagged): a per-run counter
	// assigned where a packet enters the stack and threaded alongside
	// the packet — never encoded into wire bytes — so the analyzer can
	// stitch MAC/PHY events to the reading they carried.
	J int64
	// Cause classifies drop events (kinds with IsDrop() == true).
	Cause Cause
}

// Sink receives trace events. Record is called synchronously on the
// simulation goroutine; implementations must not touch engine state.
type Sink interface {
	Record(e Event)
}

// FrameSink receives raw 802.15.4 frames as they hit the air. The data
// slice is only valid for the duration of the call.
type FrameSink interface {
	Frame(t sim.Time, node int, data []byte)
}

// Trace fans events out to its sinks. A nil *Trace is the disabled
// state; layers must guard every hook with a nil check rather than
// calling methods on a nil receiver, so the disabled path is a single
// branch.
type Trace struct {
	sinks  []Sink
	frames []FrameSink
	nextID int64
}

// NewTrace returns an empty (but enabled) trace.
func NewTrace() *Trace { return &Trace{} }

// AddSink attaches an event sink.
func (t *Trace) AddSink(s Sink) { t.sinks = append(t.sinks, s) }

// AddFrameSink attaches a frame capture sink.
func (t *Trace) AddFrameSink(s FrameSink) { t.frames = append(t.frames, s) }

// WantsFrames reports whether any frame sink is attached, so the PHY
// can skip the capture call entirely otherwise.
func (t *Trace) WantsFrames() bool { return len(t.frames) > 0 }

// NextID allocates a fresh journey packet id. Ids are per-Trace (one
// Trace per run), start at 1, and 0 always means "untagged". The engine
// runs single-threaded, so a plain counter suffices; the call touches
// only trace state and so cannot perturb the simulation.
func (t *Trace) NextID() int64 {
	t.nextID++
	return t.nextID
}

// Emit delivers e to every event sink.
func (t *Trace) Emit(e Event) {
	for _, s := range t.sinks {
		s.Record(e)
	}
}

// Frame delivers a raw frame to every frame sink.
func (t *Trace) Frame(now sim.Time, node int, data []byte) {
	for _, s := range t.frames {
		s.Frame(now, node, data)
	}
}
