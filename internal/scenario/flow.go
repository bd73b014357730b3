package scenario

import (
	"tcplp/internal/app"
	"tcplp/internal/gateway"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/stats"
)

// Transport protocols a flow can name (FlowSpec.Protocol; "" means tcp).
const (
	protoTCP  = "tcp"
	protoUDP  = "udp"
	protoCoAP = "coap"
)

// probe is one started flow's measurement interface. mark opens the
// measurement window (counters snapshot their baselines); stop freezes
// window-rate metrics and ceases sending (used by idle-phase specs);
// collect writes the window into the flow's result. Fields a protocol
// cannot measure stay zero.
type probe interface {
	mark()
	stop()
	collect(*FlowResult)
}

// telemetry is the accounting every transport's probe shares, because
// the application above them is the same (§9): the collector-side byte
// sink, the anemometer sensor, per-reading delivery credit and latency,
// gateway end-to-end credit, and the window marks. A bulk TCP
// stream uses only the sink (sensor stays nil).
type telemetry struct {
	fr  *flowRun
	net *stack.Network
	eng *sim.Engine
	// gw is the run's gateway for a flow addressed to it: the flow
	// connects to the gateway's shared LLN-side terminator instead of a
	// private sink, and is credited at the gateway (the mesh hop) and
	// again at the cloud collector behind the modeled WAN.
	gw *gateway.Gateway

	sink   *app.CountingSink
	sensor *app.Sensor

	lat                stats.Sample // per-reading latency since mark, in ms
	markGen, markDeliv uint64

	e2eDelivered, wanLost uint64
	markE2E, markWanLost  uint64

	stopped       bool
	frozenGoodput float64
	frozenBytes   int
}

func newTelemetry(rc *runContext, fr *flowRun) *telemetry {
	t := &telemetry{fr: fr, net: rc.net, eng: fr.src.Eng()}
	if fr.spec.To.Gateway {
		t.gw = rc.gw
	}
	return t
}

// register installs the flow's hooks at the gateway and takes its
// per-source sink. Like every sink, it goes in before the transport.
func (t *telemetry) register() {
	t.sink = t.gw.Register(t.fr.src.Addr, t.deliver, t.e2eDeliver, t.onWANLost)
}

// startSensor builds the anemometer on the flow's source over tr and
// starts it sampling.
func (t *telemetry) startSensor(tr app.Transport) {
	t.sensor = app.NewSensor(t.fr.src, tr, sensorQueueCap(t.fr.spec.Protocol))
	t.sensor.Interval = t.fr.spec.Interval.D()
	t.sensor.Batch = t.fr.spec.Batch
	t.sensor.Start()
}

// sensorQueueCap is the anemometer's application queue, in readings,
// over a transport: §9.2 gives CoAP the larger queue because TCP's send
// buffer holds readings too. UDP gets CoAP's.
func sensorQueueCap(protocol string) int {
	if protocol == protoTCP {
		return app.TCPQueueCap
	}
	return app.CoAPQueueCap
}

// deliver credits one reading arriving at the collector, exactly where
// the paper measures reliability (at the server), and records its
// generation→delivery latency. For gateway flows the "server" is the
// gateway — the mesh hop's terminator — and end-to-end crediting
// happens separately in e2eDeliver.
func (t *telemetry) deliver(seq uint32) {
	t.sensor.Stats.Delivered++
	t.lat.Add(t.eng.Now().Sub(t.sensor.GenTime(seq)).Milliseconds())
	if t.gw != nil {
		t.emit(obs.JourneyMesh, seq) // the mesh-egress boundary
	} else {
		t.emit(obs.JourneyDeliver, seq)
	}
}

// e2eDeliver credits one reading at the cloud collector behind the WAN.
func (t *telemetry) e2eDeliver(seq uint32) {
	t.e2eDelivered++
	t.emit(obs.JourneyDeliver, seq)
}

// onWANLost records readings dropped crossing the WAN.
func (t *telemetry) onWANLost(n int) { t.wanLost += uint64(n) }

// emit records a journey terminal event for the flow's reading seq.
func (t *telemetry) emit(kind obs.Kind, seq uint32) {
	if tr := t.net.Opt.Trace; tr != nil {
		tr.Emit(obs.Event{T: t.eng.Now(), Kind: kind, Node: t.fr.src.ID, A: int64(seq)})
	}
}

func (t *telemetry) mark() {
	t.sink.Mark()
	t.lat.Reset()
	if t.sensor != nil {
		t.markGen = t.sensor.Stats.Generated
		t.markDeliv = t.sensor.Stats.Delivered
	}
	t.markE2E = t.e2eDelivered
	t.markWanLost = t.wanLost
}

// stop freezes the window-rate metrics at this instant (goodput divides
// by the window, not the idle tail) and stops the sensor.
func (t *telemetry) stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.frozenGoodput = t.sink.GoodputKbps()
	t.frozenBytes = t.sink.BytesSinceMark()
	if t.sensor != nil {
		t.sensor.Stop()
	}
}

// collect fills the stream and delivery fields. inFlight is the
// transport's own backlog term: readings it has accepted from the
// sensor's queue and neither delivered nor given up on.
func (t *telemetry) collect(r *FlowResult, inFlight int) {
	r.GoodputKbps = t.sink.GoodputKbps()
	r.Bytes = t.sink.BytesSinceMark()
	if t.stopped {
		r.GoodputKbps = t.frozenGoodput
		r.Bytes = t.frozenBytes
	}
	if t.sensor == nil {
		// A TCP stream delivers every byte it accepts.
		r.DeliveryRatio = 1
		return
	}
	r.Generated = t.sensor.Stats.Generated - t.markGen
	r.Delivered = t.sensor.Stats.Delivered - t.markDeliv
	r.Backlog = uint64(t.sensor.QueueDepth()) + uint64(inFlight)
	r.DeliveryRatio = DeliveryRatio(r.Generated, r.Delivered, r.Backlog)
	r.LatencyP50ms = t.lat.Median()
	r.LatencyP99ms = t.lat.Quantile(0.99)
	if t.gw == nil {
		return
	}
	// End to end, the gateway-to-cloud pipeline (delivered to the
	// gateway but neither credited nor lost yet) is backlog, not loss.
	r.E2EDelivered = t.e2eDelivered - t.markE2E
	r.WANLost = t.wanLost - t.markWanLost
	pipeline := r.Backlog
	if r.Delivered > r.E2EDelivered+r.WANLost {
		pipeline += r.Delivered - r.E2EDelivered - r.WANLost
	}
	r.E2EDeliveryRatio = DeliveryRatio(r.Generated, r.E2EDelivered, pipeline)
}

// DeliveryRatio is the §9.2 reliability definition: delivered readings
// over generated readings, excluding the end-of-window backlog (queued
// or in-flight readings are not losses) and capped at 1. It works on
// any consistent window counts — the probes feed it per flow, and the
// §9 renderers feed it sums pooled across a run's sensors.
func DeliveryRatio(gen, deliv, backlog uint64) float64 {
	if deliv >= gen {
		// A pre-window backlog draining during the window can deliver
		// more than was generated; that is full delivery, not >100%.
		if gen == 0 && deliv == 0 {
			return 0
		}
		return 1
	}
	if backlog > gen-deliv {
		backlog = gen - deliv
	}
	gen -= backlog
	if gen == 0 {
		return 0
	}
	return float64(deliv) / float64(gen)
}

// messageSize returns the telemetry payload bytes per UDP/CoAP message:
// whole readings filling one LLN packet, sized like the network's TCP
// segments (§9.3 sizes each CoAP batch message like a five-frame
// segment).
func messageSize(net *stack.Network, readingSize int) int {
	info := stack.SegmentSizing(net.Opt.SegFrames, true)
	return info.SegmentPayload / readingSize * readingSize
}
