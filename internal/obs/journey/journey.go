// Package journey reconstructs per-reading causal packet journeys from
// a run's cross-layer trace events, as the events arrive.
//
// Every application reading a traced run generates is followed from
// generation through transport acceptance, TCP segments or CoAP/UDP
// datagrams (journey packet ids thread the per-packet MAC/PHY events
// in), mesh egress, gateway admission, and the WAN crossing, and is
// reconstructed into a span tree whose top-level stages telescope: by
// construction they sum exactly to the measured generation→delivery
// latency. The package also checks trace conformance — every generated
// reading must terminate delivered or lost with a typed cause — and
// exports span trees as Chrome trace events (chrome://tracing or
// Perfetto can open the file directly).
//
// The reconstruction is a fold, not a log. Recorder.Record takes each
// event into one record per reading, one per tagged packet and one per
// data transmission, and keeps nothing else: an event of a kind the
// journey does not use, or a MAC/PHY event of an untagged packet (ACKs,
// beacons, collisions), costs a switch and no memory. A traced run
// therefore holds O(readings + tagged packets) however many events it
// emits: per reading a 216-B Reading and an 8-B entry in its source's
// index, per TCP segment or datagram a 32- or 40-B log entry and its
// packet id's 64-B cost record. Every table is a blocks.List, so each
// record is made once, in its table's block, and never copied; the
// blocks a run made, the unfilled end of each table's last one
// included, are Recorder.Bytes (about 360 B per reading, its packets
// included, on the benchmark's metro_1k_traced workload).
// Recorder.Report resolves the records once, at collect.
package journey

import (
	"tcplp/internal/blocks"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// ReadingSize mirrors app.ReadingSize: the analyzer maps a reading's
// transport acceptance index to its TCP stream byte range with it. (The
// app package imports obs, so the constant is duplicated here rather
// than imported; a test pins the two together.)
const ReadingSize = 82

// State is a reading's terminal classification.
type State int

const (
	// StateInFlight marks a reading the run ended on: generated but
	// neither delivered nor lost — the backlog, not a failure.
	StateInFlight State = iota
	// StateDelivered marks a reading credited at its collector.
	StateDelivered
	// StateLost marks a reading that terminally died, with a typed cause.
	StateLost
)

// String returns the state's label.
func (s State) String() string {
	switch s {
	case StateDelivered:
		return "delivered"
	case StateLost:
		return "lost"
	default:
		return "in-flight"
	}
}

// Buckets is one delivered reading's critical-path latency attribution.
// The six top-level stages telescope — consecutive timestamp
// differences along the reading's journey — so they sum exactly to the
// end-to-end generation→delivery latency. The mesh sub-buckets
// decompose Mesh from the delivering packet's MAC/PHY events; Forward
// is the residual (queueing and per-hop forwarding), clamped at zero
// because a CoAP packet id spans retransmission attempts.
type Buckets struct {
	AppQueue sim.Duration // generation → transport acceptance
	SendWait sim.Duration // acceptance → first transmission covering the reading
	RtxStall sim.Duration // first transmission → delivering transmission
	Mesh     sim.Duration // delivering transmission → mesh egress
	Gateway  sim.Duration // mesh egress → WAN enqueue (gateway flows)
	WAN      sim.Duration // WAN enqueue → cloud credit (gateway flows)

	Backoff sim.Duration // CSMA backoff+CCA of the delivering packet
	Retry   sim.Duration // link-retry delays of the delivering packet
	Air     sim.Duration // on-air time of the delivering packet, all hops
	Forward sim.Duration // residual: queueing and forwarding
}

// Total sums the telescoping top-level stages — exactly the reading's
// end-to-end latency.
func (b *Buckets) Total() sim.Duration {
	return b.AppQueue + b.SendWait + b.RtxStall + b.Mesh + b.Gateway + b.WAN
}

// Reading is one generated reading's reconstructed journey.
type Reading struct {
	Node  int    // source node
	Seq   uint32 // reading sequence number (per sensor)
	State State
	// Cause is the loss cause when State == StateLost. On a delivered
	// CoAP CON reading it may read CauseCoAPGiveUp: the request reached
	// the sink, every ACK was lost, and the client gave up.
	Cause obs.Cause
	Stage string // furthest stage reached (State == StateInFlight)
	PID   int64  // delivering journey packet id (0 = never transmitted)

	Gen      sim.Time // generation
	Enq      sim.Time // transport acceptance
	FirstTx  sim.Time // first transmission covering the reading
	SendTx   sim.Time // delivering transmission
	MeshDone sim.Time // mesh egress (gateway flows)
	WanEnq   sim.Time // WAN enqueue (gateway flows)
	End      sim.Time // delivery or loss

	Buckets Buckets // valid when State == StateDelivered

	hasEnq, hasMesh, hasWan, hasDeliver, hasLoss bool
	enqIdx                                       int64
	lossT                                        sim.Time
}

// BucketsMs is a flow's mean per-stage attribution in milliseconds
// (FlowResult-embeddable).
type BucketsMs struct {
	AppQueue float64 `json:"app_queue_ms"`
	SendWait float64 `json:"send_wait_ms"`
	RtxStall float64 `json:"rtx_stall_ms"`
	Mesh     float64 `json:"mesh_ms"`
	Backoff  float64 `json:"backoff_ms"`
	Retry    float64 `json:"retry_ms"`
	Air      float64 `json:"air_ms"`
	Forward  float64 `json:"forward_ms"`
	Gateway  float64 `json:"gateway_ms"`
	WAN      float64 `json:"wan_ms"`
	Total    float64 `json:"total_ms"`
}

// FlowReport aggregates one flow's (one source node's) readings.
type FlowReport struct {
	Node            int            `json:"node"`
	Generated       int            `json:"generated"`
	Delivered       int            `json:"delivered"`
	Lost            int            `json:"lost"`
	InFlight        int            `json:"in_flight"`
	LostByCause     map[string]int `json:"lost_by_cause,omitempty"`
	InFlightByStage map[string]int `json:"in_flight_by_stage,omitempty"`
	// Mean is the per-stage mean over delivered readings, ms.
	Mean BucketsMs `json:"mean"`
}

// Report is one run's full journey reconstruction.
type Report struct {
	// Readings lists every generated reading in generation order.
	Readings []*Reading
	// Flows aggregates per source node.
	Flows map[int]*FlowReport
}

// segTx is one JourneySeg: a TCP payload transmission at the source,
// identified by its relative stream byte range.
type segTx struct {
	t       sim.Time
	jid     int64
	off, ln int64
}

// dataTx is one JourneyData: a datagram carrying whole readings.
type dataTx struct {
	t        sim.Time
	jid      int64
	first    uint32
	count    int64
	reliable bool
}

// pidCost accumulates one journey packet's MAC/PHY costs and terminal
// fate across its mesh traversal.
type pidCost struct {
	backoff, retry, air sim.Duration
	rtx                 []sim.Time // CoAP retransmission times
	drop                obs.Cause  // terminal mesh drop (unreliable pids)
	dropT               sim.Time
}

// source is what one node has generated and transmitted. A sensor
// numbers its readings consecutively, so readings.At(i) has sequence
// number first+i.
type source struct {
	first    uint32
	readings blocks.List[*Reading]
	segs     blocks.List[segTx]
	datas    blocks.List[dataTx]
}

const (
	// maxNode bounds the node table: an event from a node id outside
	// [0, maxNode) is not from this simulator and is ignored rather than
	// allowed to size the table.
	maxNode = 1 << 20
	// maxIDGap is how far past the highest packet id seen a JourneySeg or
	// JourneyData may announce a new one. Trace.NextID hands ids out
	// consecutively and every id is announced at once, so a run never
	// skips; the allowance lets a hand-written trace number its packets
	// freely without letting a corrupt id size the table.
	maxIDGap = 1 << 10
)

// Recorder is the obs.Sink that reconstructs journeys: Record folds
// each event into the per-reading, per-source and per-packet records as
// it arrives, and Report resolves them once the run is over. No event
// is retained. Every table that grows with the run is a blocks.List, so
// a record is made once, in its table's block, and never copied. One
// Recorder serves one run: the engine is single-threaded, so Record needs
// no locking.
type Recorder struct {
	readings blocks.List[Reading] // generation order
	sources  []*source            // by node id; nil until the node generates or transmits
	pids     blocks.List[pidCost] // by journey packet id; grown as ids are announced
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// source returns node's record, creating it when the event opens one.
// Record runs inside the event loop, so an id the tables cannot hold is
// refused (nil), never indexed.
func (rec *Recorder) source(node int, create bool) *source {
	if node < 0 || node >= maxNode || (node >= len(rec.sources) && !create) {
		return nil
	}
	if node >= len(rec.sources) {
		rec.sources = append(rec.sources, make([]*source, node+1-len(rec.sources))...)
	}
	if rec.sources[node] == nil && create {
		rec.sources[node] = &source{}
	}
	return rec.sources[node]
}

// reading finds the reading a per-reading journey event refers to.
func (rec *Recorder) reading(e obs.Event) *Reading {
	src := rec.source(e.Node, false)
	if src == nil {
		return nil
	}
	// Unsigned: a sequence number below first wraps out of range.
	if i := uint32(e.A) - src.first; int64(i) < int64(src.readings.Len()) {
		return src.readings.At(int(i))
	}
	return nil
}

// announce makes room for packet id j, introduced by a JourneySeg or
// JourneyData event.
func (rec *Recorder) announce(j int64) {
	if n := int64(rec.pids.Len()); j >= n && j <= n+maxIDGap {
		for ; n <= j; n++ {
			rec.pids.Push(pidCost{})
		}
	}
}

// pid returns packet j's costs: nil for an untagged packet (j == 0) and
// for an id no transmission announced.
func (rec *Recorder) pid(j int64) *pidCost {
	if j <= 0 || j >= int64(rec.pids.Len()) {
		return nil
	}
	return rec.pids.Ptr(int(j))
}

// Record implements obs.Sink.
func (rec *Recorder) Record(e obs.Event) {
	switch e.Kind {
	case obs.JourneyGen:
		src := rec.source(e.Node, true)
		if src == nil {
			return
		}
		seq := uint32(e.A)
		if src.readings.Len() == 0 {
			src.first = seq
		} else if seq-src.first != uint32(src.readings.Len()) {
			return // a duplicate, or not the sensor's next reading
		}
		src.readings.Push(rec.readings.Push(Reading{Node: e.Node, Seq: seq, Gen: e.T}))
	case obs.JourneyEnq:
		if r := rec.reading(e); r != nil {
			r.Enq, r.enqIdx, r.hasEnq = e.T, e.B, true
		}
	case obs.JourneySeg:
		if src := rec.source(e.Node, true); src != nil {
			rec.announce(e.J)
			src.segs.Push(segTx{t: e.T, jid: e.J, off: e.A, ln: int64(e.Len)})
		}
	case obs.JourneyData:
		if src := rec.source(e.Node, true); src != nil {
			rec.announce(e.J)
			src.datas.Push(dataTx{t: e.T, jid: e.J, first: uint32(e.A), count: e.B, reliable: e.Len != 0})
		}
	case obs.JourneyMesh:
		if r := rec.reading(e); r != nil {
			r.MeshDone, r.hasMesh = e.T, true
		}
	case obs.JourneyWanEnq:
		if r := rec.reading(e); r != nil {
			r.WanEnq, r.hasWan = e.T, true
		}
	case obs.JourneyDeliver:
		if r := rec.reading(e); r != nil && !r.hasDeliver {
			r.End, r.hasDeliver = e.T, true
		}
	case obs.JourneyLoss:
		if r := rec.reading(e); r != nil && !r.hasLoss {
			r.lossT, r.Cause, r.hasLoss = e.T, e.Cause, true
		}
	case obs.MacBackoff:
		if pc := rec.pid(e.J); pc != nil {
			// B is the drawn slot count; the MAC waits slots·unit + CCA.
			pc.backoff += sim.Duration(e.B)*phy.UnitBackoff + phy.CCATime
		}
	case obs.MacRetry:
		if pc := rec.pid(e.J); pc != nil {
			pc.retry += sim.Duration(e.B)
		}
	case obs.PhyTx:
		if pc := rec.pid(e.J); pc != nil {
			pc.air += sim.Duration(e.A)
		}
	case obs.CoAPRtx:
		if pc := rec.pid(e.J); pc != nil {
			pc.rtx = append(pc.rtx, e.T)
		}
	case obs.QueueDrop, obs.MacDrop, obs.FragTimeout, obs.IPDrop:
		// Terminal mesh drops end an unreliable packet's journey. (PHY
		// losses are not terminal — link retries recover them.)
		if pc := rec.pid(e.J); pc != nil && pc.drop == obs.CauseNone {
			pc.drop, pc.dropT = e.Cause, e.T
		}
	}
}

// Report resolves every reading's journey from what Record has folded
// so far. Call it once, when the run is over: it classifies the
// recorder's own reading records and hands them to the report.
func (rec *Recorder) Report() *Report {
	rep := &Report{Readings: make([]*Reading, 0, rec.readings.Len()), Flows: map[int]*FlowReport{}}
	for b := 0; b < rec.readings.Blocks(); b++ {
		blk := rec.readings.Block(b)
		for i := range blk {
			r := &blk[i]
			rec.resolve(r)
			rep.addToFlow(r)
			rep.Readings = append(rep.Readings, r)
		}
	}
	rep.finishFlows()
	return rep
}

// Bytes returns the bytes of the blocks the recorder has made for its
// tables, the unfilled slots of each table's last block included.
func (rec *Recorder) Bytes() int {
	n := rec.readings.Bytes() + rec.pids.Bytes()
	for _, src := range rec.sources {
		if src != nil {
			n += src.readings.Bytes() + src.segs.Bytes() + src.datas.Bytes()
		}
	}
	return n
}

// coveringData finds the datagram that carried r (readings leave the
// queue in whole datagrams, so there is at most one).
func (rec *Recorder) coveringData(r *Reading) *dataTx {
	ds := &rec.sources[r.Node].datas
	for b := ds.Blocks() - 1; b >= 0; b-- {
		blk := ds.Block(b)
		for i := len(blk) - 1; i >= 0; i-- {
			d := &blk[i]
			if d.first <= r.Seq && int64(r.Seq-d.first) < d.count {
				return d
			}
		}
	}
	return nil
}

func (rec *Recorder) resolve(r *Reading) {
	switch {
	case r.hasDeliver:
		r.State = StateDelivered
		rec.attribute(r)
	case r.hasLoss:
		r.State = StateLost
		r.End = r.lossT
	default:
		// A reading in an unreliable datagram dies silently with its
		// packet: adopt the packet's terminal mesh drop cause. Reliable
		// carriers (TCP, CoAP CON) retransmit past packet drops, so for
		// them only an explicit JourneyLoss is terminal.
		if d := rec.coveringData(r); d != nil && !d.reliable {
			if pc := rec.pid(d.jid); pc != nil && pc.drop != obs.CauseNone {
				r.State = StateLost
				r.Cause, r.End, r.PID = pc.drop, pc.dropT, d.jid
				return
			}
		}
		r.State = StateInFlight
		r.Stage = r.stage()
	}
}

// stage names the furthest boundary an in-flight reading crossed.
func (r *Reading) stage() string {
	switch {
	case !r.hasEnq:
		return "app-queue"
	case r.hasWan:
		return "wan"
	case r.hasMesh:
		return "gateway"
	default:
		return "mesh"
	}
}

// attribute computes a delivered reading's telescoping buckets.
func (rec *Recorder) attribute(r *Reading) {
	if !r.hasEnq {
		r.Enq = r.Gen // defensive: a delivered reading was accepted
	}
	meshRef := r.End
	if r.hasMesh {
		meshRef = r.MeshDone
	}
	firstTx, sendTx, pid := rec.locateTx(r, meshRef)
	if pid == 0 {
		// Never saw a transmission (shouldn't happen for a delivered
		// reading); collapse the transmit stages to zero.
		firstTx, sendTx = r.Enq, r.Enq
	}
	r.FirstTx, r.SendTx, r.PID = firstTx, sendTx, pid

	b := &r.Buckets
	b.AppQueue = r.Enq.Sub(r.Gen)
	b.SendWait = firstTx.Sub(r.Enq)
	b.RtxStall = sendTx.Sub(firstTx)
	meshEnd := r.End
	if r.hasMesh {
		meshEnd = r.MeshDone
		if r.hasWan {
			b.Gateway = r.WanEnq.Sub(r.MeshDone)
			b.WAN = r.End.Sub(r.WanEnq)
		} else {
			b.WAN = r.End.Sub(r.MeshDone)
		}
	}
	b.Mesh = meshEnd.Sub(sendTx)
	if pc := rec.pid(pid); pc != nil {
		b.Backoff, b.Retry, b.Air = pc.backoff, pc.retry, pc.air
	}
	b.Forward = b.Mesh - b.Backoff - b.Retry - b.Air
	if b.Forward < 0 {
		b.Forward = 0
	}
}

// locateTx finds the reading's first and delivering transmissions. TCP
// readings map their acceptance index to a stream byte range and scan
// the source's JourneySeg records for segments covering the reading's
// last byte; the delivering segment is the last covering one at or
// before the mesh-egress reference. Datagram readings use their
// covering JourneyData (CoAP retransmissions refine the delivering
// time via the exchange's CoAPRtx records).
func (rec *Recorder) locateTx(r *Reading, meshRef sim.Time) (firstTx, sendTx sim.Time, pid int64) {
	lastByte := r.enqIdx*ReadingSize + ReadingSize - 1
	var found bool
	segs := &rec.sources[r.Node].segs
	for b := 0; b < segs.Blocks(); b++ {
		blk := segs.Block(b)
		for i := range blk {
			s := &blk[i]
			if s.off <= lastByte && lastByte < s.off+s.ln {
				if !found {
					firstTx, found = s.t, true
				}
				if s.t <= meshRef || pid == 0 {
					sendTx, pid = s.t, s.jid
				}
			}
		}
	}
	if found {
		return firstTx, sendTx, pid
	}
	if d := rec.coveringData(r); d != nil {
		firstTx, sendTx, pid = d.t, d.t, d.jid
		if pc := rec.pid(d.jid); pc != nil {
			for _, t := range pc.rtx {
				if t <= meshRef {
					sendTx = t
				}
			}
		}
		return firstTx, sendTx, pid
	}
	return 0, 0, 0
}

func (rep *Report) addToFlow(r *Reading) {
	f := rep.Flows[r.Node]
	if f == nil {
		f = &FlowReport{Node: r.Node}
		rep.Flows[r.Node] = f
	}
	f.Generated++
	switch r.State {
	case StateDelivered:
		f.Delivered++
		b := &r.Buckets
		f.Mean.AppQueue += b.AppQueue.Milliseconds()
		f.Mean.SendWait += b.SendWait.Milliseconds()
		f.Mean.RtxStall += b.RtxStall.Milliseconds()
		f.Mean.Mesh += b.Mesh.Milliseconds()
		f.Mean.Backoff += b.Backoff.Milliseconds()
		f.Mean.Retry += b.Retry.Milliseconds()
		f.Mean.Air += b.Air.Milliseconds()
		f.Mean.Forward += b.Forward.Milliseconds()
		f.Mean.Gateway += b.Gateway.Milliseconds()
		f.Mean.WAN += b.WAN.Milliseconds()
		f.Mean.Total += b.Total().Milliseconds()
	case StateLost:
		f.Lost++
		if f.LostByCause == nil {
			f.LostByCause = map[string]int{}
		}
		f.LostByCause[r.Cause.String()]++
	default:
		f.InFlight++
		if f.InFlightByStage == nil {
			f.InFlightByStage = map[string]int{}
		}
		f.InFlightByStage[r.Stage]++
	}
}

func (rep *Report) finishFlows() {
	for _, f := range rep.Flows {
		if f.Delivered == 0 {
			continue
		}
		n := float64(f.Delivered)
		f.Mean.AppQueue /= n
		f.Mean.SendWait /= n
		f.Mean.RtxStall /= n
		f.Mean.Mesh /= n
		f.Mean.Backoff /= n
		f.Mean.Retry /= n
		f.Mean.Air /= n
		f.Mean.Forward /= n
		f.Mean.Gateway /= n
		f.Mean.WAN /= n
		f.Mean.Total /= n
	}
}
