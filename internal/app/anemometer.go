package app

import (
	"encoding/binary"

	"tcplp/internal/coap"
	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// Anemometer workload constants (§3, §9.2).
const (
	// ReadingSize is one ultrasonic anemometer sample: 12 transit-time
	// measurements plus framing = 82 bytes.
	ReadingSize = 82
	// DefaultInterval is the 1 Hz sample rate.
	DefaultInterval = sim.Second
	// TCPQueueCap readings fit the application-layer queue when TCP's
	// send buffer absorbs another 40 (§9.2).
	TCPQueueCap = 64
	// CoAPQueueCap is the larger queue used for CoAP (§9.2).
	CoAPQueueCap = 104
)

// SensorStats counts a sensor's readings. Delivered is credited by the
// collector, where §9.2 measures reliability.
type SensorStats struct {
	Generated uint64
	Dropped   uint64 // application-queue overflow
	Delivered uint64 // credited at the collector
}

// Transport abstracts how batches leave the node (TCP stream vs CoAP
// exchanges vs unreliable CoAP).
type Transport interface {
	// Send attempts to hand bytes to the network; it returns how many
	// bytes were accepted. p is the sensor's queue, borrowed for the
	// call: the transport copies what it accepts before returning.
	Send(p []byte) int
}

// Sensor generates fixed-size readings on a period, queues them in a
// bounded application-layer queue, and drains the queue through a
// Transport, either immediately or in batches.
type Sensor struct {
	eng       *sim.Engine
	transport Transport

	Interval sim.Duration
	QueueCap int // in readings
	// Batch drains only once this many readings are queued (0 = send
	// each reading immediately).
	Batch int

	// queue[head:] is the queued readings, back-to-back. drain moves
	// head forward and sample slides what is left back to the front
	// when the array's tail is used up, so the array stops growing.
	queue   []byte
	head    int
	seq     uint32
	started bool
	stopped bool
	t0      sim.Time // when Start ran: reading seq is generated at t0 + seq·Interval
	tick    func()   // sample, bound once by Start for every Schedule

	// trace, the node's, when non-nil, takes per-reading journey events
	// (generation, transport acceptance, app-queue loss) tagged with
	// node, its id. All journey bookkeeping below is gated on trace so
	// the disabled path allocates nothing.
	trace *obs.Trace
	node  int
	// enqSeqs holds queued-but-not-yet-accepted reading seqs in order;
	// acceptedBytes counts transport-accepted bytes (transports may
	// accept partial readings), and enqCount numbers fully accepted
	// readings — the acceptance index journey analysis maps to TCP
	// stream offsets.
	enqSeqs       []uint32
	acceptedBytes int64
	enqCount      int64

	Stats SensorStats
}

// NewSensor builds a sensor on node over a transport. A transport of
// this package is linked back to the sensor, which it then wakes
// whenever it can take more.
func NewSensor(node *stack.Node, tr Transport, queueCap int) *Sensor {
	s := &Sensor{
		eng:       node.Eng(),
		transport: tr,
		Interval:  DefaultInterval,
		QueueCap:  queueCap,
		trace:     node.Net.Opt.Trace,
		node:      node.ID,
	}
	if l, ok := tr.(interface{ attach(*Sensor) }); ok {
		l.attach(s)
	}
	return s
}

// Start begins sampling: reading seq (from 1) is taken seq Intervals
// later. Interval must not change once Start has run.
func (s *Sensor) Start() {
	if s.started {
		return
	}
	s.started = true
	s.t0 = s.eng.Now()
	s.tick = s.sample
	s.eng.Schedule(s.Interval, s.tick)
}

// Stop ceases sampling (queued readings still drain as the transport
// accepts them).
func (s *Sensor) Stop() { s.stopped = true }

// GenTime is when reading seq was generated — the collector side uses
// it to compute per-reading generation→delivery latency. The sensor
// samples on a fixed period from Start, so that is a product, not a
// record: nothing is kept per reading.
func (s *Sensor) GenTime(seq uint32) sim.Time {
	return s.t0.Add(sim.Duration(seq) * s.Interval)
}

func (s *Sensor) sample() {
	if s.stopped {
		return
	}
	s.Stats.Generated++
	s.seq++
	if tr := s.trace; tr != nil {
		tr.Emit(obs.Event{T: s.eng.Now(), Kind: obs.JourneyGen, Node: s.node, A: int64(s.seq)})
	}
	if s.QueueDepth() >= s.QueueCap {
		s.Stats.Dropped++
		if tr := s.trace; tr != nil {
			tr.Emit(obs.Event{T: s.eng.Now(), Kind: obs.JourneyLoss, Node: s.node, A: int64(s.seq), Cause: obs.CauseAppQueueFull})
		}
	} else {
		s.enqueueReading()
		if s.trace != nil {
			s.enqSeqs = append(s.enqSeqs, s.seq)
		}
	}
	s.drain()
	s.eng.Schedule(s.Interval, s.tick)
}

// enqueueReading writes an 82-byte reading tagged with the sequence
// number in place at the queue's tail.
func (s *Sensor) enqueueReading() {
	if s.queue == nil {
		// Sized for what drain waits for: a batch, or the one reading an
		// unbatched sensor holds at a time.
		s.queue = make([]byte, 0, max(s.Batch, 1)*ReadingSize)
	}
	if s.head > 0 && len(s.queue)+ReadingSize > cap(s.queue) {
		s.queue = s.queue[:copy(s.queue, s.queue[s.head:])]
		s.head = 0
	}
	if len(s.queue)+ReadingSize > cap(s.queue) {
		// A transport fell behind: make the queue its bound, once. sample
		// enqueues only below QueueCap whole readings, so what is queued,
		// a partly accepted reading at the head included, stays below
		// QueueCap+1 readings' bytes.
		q := make([]byte, len(s.queue), (s.QueueCap+1)*ReadingSize)
		copy(q, s.queue)
		s.queue = q
	}
	n := len(s.queue)
	s.queue = s.queue[:n+ReadingSize]
	r := s.queue[n:]
	binary.BigEndian.PutUint32(r, s.seq)
	for i := 4; i < ReadingSize; i++ {
		r[i] = byte(i + int(s.seq))
	}
}

// Drain pushes queued readings into the transport subject to the
// batching policy.
func (s *Sensor) drain() {
	if s.Batch > 0 && len(s.queue)-s.head < s.Batch*ReadingSize {
		return
	}
	for s.head < len(s.queue) {
		n := s.transport.Send(s.queue[s.head:])
		if n == 0 {
			return
		}
		// Only whole readings leave the queue; transports accept
		// arbitrary byte counts but we account in readings.
		s.head += n
		s.noteAccepted(n)
	}
	s.queue, s.head = s.queue[:0], 0
}

// noteAccepted advances the journey acceptance boundary: once the
// transport has taken a reading's last byte, the reading has left the
// application queue and a JourneyEnq marks it with its acceptance index
// (its 0-based position in the transport byte stream, in readings).
func (s *Sensor) noteAccepted(n int) {
	tr := s.trace
	if tr == nil {
		return
	}
	s.acceptedBytes += int64(n)
	for len(s.enqSeqs) > 0 && s.acceptedBytes >= (s.enqCount+1)*ReadingSize {
		seq := s.enqSeqs[0]
		s.enqSeqs = s.enqSeqs[1:]
		tr.Emit(obs.Event{T: s.eng.Now(), Kind: obs.JourneyEnq, Node: s.node, A: int64(seq), B: s.enqCount})
		s.enqCount++
	}
}

// NotifyWritable retries draining (wired to transport progress).
func (s *Sensor) NotifyWritable() { s.drain() }

// QueueDepth returns queued readings.
func (s *Sensor) QueueDepth() int { return (len(s.queue) - s.head) / ReadingSize }

// ---- TCP transport ----

// TCPTransport streams readings over one long-lived TCPlp connection.
type TCPTransport struct {
	Conn   *tcplp.Conn
	sensor *Sensor
}

// NewTCPTransportConfig connects node to collector:port under the
// flow's TCP configuration; NewSensor links the sensor it drains.
func NewTCPTransportConfig(node *stack.Node, cfg tcplp.Config, collector ip6.Addr, port uint16) *TCPTransport {
	tr := &TCPTransport{}
	c := node.TCP().ConnectConfig(collector, port, cfg)
	tr.Conn = c
	c.OnWritable = func() {
		if tr.sensor != nil {
			tr.sensor.NotifyWritable()
		}
	}
	return tr
}

// attach links the sensor that drains through this transport (delivery
// itself is counted at the collector side, as the paper measures it).
func (t *TCPTransport) attach(s *Sensor) { t.sensor = s }

// Send implements Transport.
func (t *TCPTransport) Send(p []byte) int {
	n, err := t.Conn.Write(p)
	if err != nil {
		return 0
	}
	return n
}

// ---- CoAP transport ----

// CoAPTransport ships readings as CoAP POSTs sized to one LLN packet
// (§9.3 sizes each CoAP batch message like a five-frame TCP segment),
// using blockwise numbering within a batch, confirmable or not.
type CoAPTransport struct {
	Client      *coap.Client
	Confirmable bool
	// MessageSize is the payload bytes per POST.
	MessageSize int

	eng      *sim.Engine
	sensor   *Sensor
	blockNum uint32
	posted   func(payload []byte, ok bool) // onPosted, bound once for every POST
}

// NewCoAPTransportPort builds a CoAP transport over the node's UDP
// stack to the collector's server port; a port per flow lets several
// flows of one mesh run separate collectors.
func NewCoAPTransportPort(node *stack.Node, collector ip6.Addr, port uint16, confirmable bool, msgSize int) *CoAPTransport {
	// The client's trace, the node's, also takes the transport's journey
	// events: each POST's packet id and its readings' give-ups.
	cl := coap.NewClient(node.Eng(), node.UDP(), collector, port)
	cl.Trace, cl.Node = node.Net.Opt.Trace, node.ID
	if node.Sleep != nil {
		sc := node.Sleep
		cl.OnExpectingChange = func(on bool) { sc.SetExpecting(on) }
	}
	t := &CoAPTransport{Client: cl, Confirmable: confirmable, MessageSize: msgSize, eng: node.Eng()}
	t.posted = t.onPosted
	return t
}

// attach links the sensor that drains through this transport.
func (t *CoAPTransport) attach(s *Sensor) { t.sensor = s }

// Send implements Transport: it takes up to MessageSize whole readings
// per POST, NSTART=1 plus a short queue.
func (t *CoAPTransport) Send(p []byte) int {
	if t.Client.Pending() >= 4 {
		return 0
	}
	n := t.MessageSize / ReadingSize * ReadingSize
	if n > len(p) {
		n = len(p) / ReadingSize * ReadingSize
	}
	if n == 0 {
		return 0
	}
	blk := coap.Block1{Num: t.blockNum, More: false, SZX: 6}
	t.blockNum++
	var jid int64
	if tr := t.Client.Trace; tr != nil {
		jid = tr.NextID()
		reliable := int64(0)
		if t.Confirmable {
			reliable = 1
		}
		tr.Emit(obs.Event{T: t.eng.Now(), Kind: obs.JourneyData, Node: t.Client.Node, J: jid,
			A: int64(binary.BigEndian.Uint32(p)), B: int64(n / ReadingSize), Len: int(reliable)})
	}
	t.Client.PostJID("telemetry", p[:n], t.Confirmable, &blk, jid, t.posted)
	return n
}

// onPosted is every POST's completion, lent the readings it carried.
// Delivery is counted at the collector (server side), as the paper
// measures reliability; here a give-up names its losses and draining
// resumes.
func (t *CoAPTransport) onPosted(payload []byte, ok bool) {
	if !ok && t.Confirmable {
		if tr := t.Client.Trace; tr != nil {
			now := t.eng.Now()
			ForEachReading(payload, func(seq uint32) {
				tr.Emit(obs.Event{T: now, Kind: obs.JourneyLoss, Node: t.Client.Node, A: int64(seq), Cause: obs.CauseCoAPGiveUp})
			})
		}
	}
	if t.sensor != nil {
		t.sensor.NotifyWritable()
	}
}
