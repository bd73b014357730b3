// Package journey reconstructs per-reading causal packet journeys from
// a run's cross-layer trace events.
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
package journey

import (
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// ReadingSize mirrors app.ReadingSize: the analyzer maps a reading's
// transport acceptance index to its TCP stream byte range with it. (The
// app package imports obs, so the constant is duplicated here rather
// than imported; a test pins the two together.)
const ReadingSize = 82

// Recorder is an obs.Sink that buffers every event in memory for
// post-run analysis. One Recorder serves one run: the engine is
// single-threaded, so Record needs no locking.
type Recorder struct {
	Events []obs.Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements obs.Sink.
func (r *Recorder) Record(e obs.Event) { r.Events = append(r.Events, e) }

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

type rkey struct {
	node int
	seq  uint32
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

type analysis struct {
	readings map[rkey]*Reading
	order    []rkey
	segs     map[int][]segTx  // by source node
	datas    map[int][]dataTx // by source node
	pids     map[int64]*pidCost
}

func (a *analysis) pid(j int64) *pidCost {
	pc := a.pids[j]
	if pc == nil {
		pc = &pidCost{}
		a.pids[j] = pc
	}
	return pc
}

func (a *analysis) reading(e obs.Event) *Reading {
	return a.readings[rkey{e.Node, uint32(e.A)}]
}

// Analyze reconstructs every reading's journey from a run's recorded
// events (emission order — the recorder preserves it).
func Analyze(events []obs.Event) *Report {
	a := &analysis{
		readings: map[rkey]*Reading{},
		segs:     map[int][]segTx{},
		datas:    map[int][]dataTx{},
		pids:     map[int64]*pidCost{},
	}
	for _, e := range events {
		a.ingest(e)
	}
	rep := &Report{Flows: map[int]*FlowReport{}}
	for _, k := range a.order {
		r := a.readings[k]
		a.resolve(r)
		rep.Readings = append(rep.Readings, r)
		rep.addToFlow(r)
	}
	rep.finishFlows()
	return rep
}

func (a *analysis) ingest(e obs.Event) {
	switch e.Kind {
	case obs.JourneyGen:
		k := rkey{e.Node, uint32(e.A)}
		if _, dup := a.readings[k]; dup {
			return
		}
		a.readings[k] = &Reading{Node: e.Node, Seq: uint32(e.A), Gen: e.T}
		a.order = append(a.order, k)
	case obs.JourneyEnq:
		if r := a.reading(e); r != nil {
			r.Enq, r.enqIdx, r.hasEnq = e.T, e.B, true
		}
	case obs.JourneySeg:
		a.segs[e.Node] = append(a.segs[e.Node], segTx{t: e.T, jid: e.J, off: e.A, ln: int64(e.Len)})
	case obs.JourneyData:
		a.datas[e.Node] = append(a.datas[e.Node],
			dataTx{t: e.T, jid: e.J, first: uint32(e.A), count: e.B, reliable: e.Len != 0})
	case obs.JourneyMesh:
		if r := a.reading(e); r != nil {
			r.MeshDone, r.hasMesh = e.T, true
		}
	case obs.JourneyWanEnq:
		if r := a.reading(e); r != nil {
			r.WanEnq, r.hasWan = e.T, true
		}
	case obs.JourneyDeliver:
		if r := a.reading(e); r != nil && !r.hasDeliver {
			r.End, r.hasDeliver = e.T, true
		}
	case obs.JourneyLoss:
		if r := a.reading(e); r != nil && !r.hasLoss {
			r.lossT, r.Cause, r.hasLoss = e.T, e.Cause, true
		}
	case obs.MacBackoff:
		if e.J != 0 {
			// B is the drawn slot count; the MAC waits slots·unit + CCA.
			a.pid(e.J).backoff += sim.Duration(e.B)*phy.UnitBackoff + phy.CCATime
		}
	case obs.MacRetry:
		if e.J != 0 {
			a.pid(e.J).retry += sim.Duration(e.B)
		}
	case obs.PhyTx:
		if e.J != 0 {
			a.pid(e.J).air += sim.Duration(e.A)
		}
	case obs.CoAPRtx:
		if e.J != 0 {
			pc := a.pid(e.J)
			pc.rtx = append(pc.rtx, e.T)
		}
	case obs.QueueDrop, obs.MacDrop, obs.FragTimeout, obs.IPDrop:
		// Terminal mesh drops end an unreliable packet's journey. (PHY
		// losses are not terminal — link retries recover them.)
		if e.J != 0 {
			pc := a.pid(e.J)
			if pc.drop == obs.CauseNone {
				pc.drop, pc.dropT = e.Cause, e.T
			}
		}
	}
}

// coveringData finds the datagram that carried r (readings leave the
// queue in whole datagrams, so there is at most one).
func (a *analysis) coveringData(r *Reading) *dataTx {
	ds := a.datas[r.Node]
	for i := len(ds) - 1; i >= 0; i-- {
		d := &ds[i]
		if d.first <= r.Seq && int64(r.Seq-d.first) < d.count {
			return d
		}
	}
	return nil
}

func (a *analysis) resolve(r *Reading) {
	switch {
	case r.hasDeliver:
		r.State = StateDelivered
		a.attribute(r)
	case r.hasLoss:
		r.State = StateLost
		r.End = r.lossT
	default:
		// A reading in an unreliable datagram dies silently with its
		// packet: adopt the packet's terminal mesh drop cause. Reliable
		// carriers (TCP, CoAP CON) retransmit past packet drops, so for
		// them only an explicit JourneyLoss is terminal.
		if d := a.coveringData(r); d != nil && !d.reliable {
			if pc := a.pids[d.jid]; pc != nil && pc.drop != obs.CauseNone {
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
func (a *analysis) attribute(r *Reading) {
	if !r.hasEnq {
		r.Enq = r.Gen // defensive: a delivered reading was accepted
	}
	meshRef := r.End
	if r.hasMesh {
		meshRef = r.MeshDone
	}
	firstTx, sendTx, pid := a.locateTx(r, meshRef)
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
	if pc := a.pids[pid]; pc != nil {
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
func (a *analysis) locateTx(r *Reading, meshRef sim.Time) (firstTx, sendTx sim.Time, pid int64) {
	lastByte := r.enqIdx*ReadingSize + ReadingSize - 1
	var found bool
	for i := range a.segs[r.Node] {
		s := &a.segs[r.Node][i]
		if s.off <= lastByte && lastByte < s.off+s.ln {
			if !found {
				firstTx, found = s.t, true
			}
			if s.t <= meshRef || pid == 0 {
				sendTx, pid = s.t, s.jid
			}
		}
	}
	if found {
		return firstTx, sendTx, pid
	}
	if d := a.coveringData(r); d != nil {
		firstTx, sendTx, pid = d.t, d.t, d.jid
		if pc := a.pids[d.jid]; pc != nil {
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
