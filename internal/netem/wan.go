package netem

import (
	"math/rand"

	"tcplp/internal/obs"
	"tcplp/internal/ring"
	"tcplp/internal/sim"
)

// DefaultWANQueueCap bounds a WAN link's serialization queue when the
// configuration leaves it zero.
const DefaultWANQueueCap = 64

// WANConfig models the wide-area backhaul behind a border-router
// gateway: a single serializing link with propagation delay and random
// message loss — the netem-style shaping of a cloud uplink.
type WANConfig struct {
	// BandwidthKbps serializes messages at this rate; 0 means an
	// unconstrained link (messages only see the propagation delay).
	BandwidthKbps float64
	// Delay is the one-way propagation latency added after a message
	// finishes serializing.
	Delay sim.Duration
	// Loss drops each message with this probability, decided by the
	// link's own deterministic source.
	Loss float64
	// QueueCap bounds messages queued or serializing; arrivals beyond it
	// are tail-dropped at the gateway (default DefaultWANQueueCap).
	QueueCap int
}

// WANStats counts a WAN link's message-level events.
type WANStats struct {
	Sent       uint64 // messages accepted onto the link
	Delivered  uint64 // messages that reached the far end
	QueueDrops uint64 // tail drops at the serialization queue
	LossDrops  uint64 // random losses in flight
	BytesSent  uint64 // payload bytes accepted
	MaxQueue   int    // peak queue depth since the last reset
}

// WANLink is one instantiated WAN. It carries opaque application
// messages — the gateway's forwarded reading batches — rather than
// simulated packets: bandwidth is modeled as serialization time on a
// single busy resource, so concurrent senders queue behind each other
// exactly like a shaped uplink.
type WANLink struct {
	eng *sim.Engine
	cfg WANConfig
	rng *rand.Rand

	busyUntil sim.Time
	queued    int

	// Messages in flight, oldest first (see the package comment), and
	// the two callbacks, bound once, that pop them.
	serializing, propagating ring.Ring[wanMsg]
	onTxDone, onArrive       func()

	Stats WANStats

	// Trace/Node, when Trace is non-nil, emit enqueue/drop events (obs).
	Trace *obs.Trace
	Node  int
}

// NewWANLink builds a link on eng's clock with its own deterministic
// loss source, so runs stay bit-identical whatever else draws from the
// engine's RNG.
func NewWANLink(eng *sim.Engine, cfg WANConfig, seed int64) *WANLink {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultWANQueueCap
	}
	l := &WANLink{eng: eng, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
	l.onTxDone, l.onArrive = l.txDone, l.arrive
	return l
}

// wanMsg is one accepted message and its loss draw, made at send time.
type wanMsg struct {
	size          int
	deliver, lost func()
	dropped       bool
}

// QueueDepth returns messages currently queued or serializing.
func (l *WANLink) QueueDepth() int { return l.queued }

// ResetMaxQueue restarts the peak-depth tracker at the current depth
// (called when a measurement window opens).
func (l *WANLink) ResetMaxQueue() { l.Stats.MaxQueue = l.queued }

// serialization returns how long size bytes occupy the link.
func (l *WANLink) serialization(size int) sim.Duration {
	if l.cfg.BandwidthKbps <= 0 {
		return 0
	}
	return sim.Duration(float64(size*8) / (l.cfg.BandwidthKbps * 1000) * float64(sim.Second))
}

// Send offers one size-byte message to the link. A full queue drops it
// immediately and returns false; otherwise the message serializes at
// the configured bandwidth, crosses the propagation delay, and exactly
// one of deliver or lost fires (lost covers in-flight random loss).
// Either callback may be nil.
func (l *WANLink) Send(size int, deliver, lost func()) bool {
	if l.queued >= l.cfg.QueueCap {
		l.Stats.QueueDrops++
		if tr := l.Trace; tr != nil {
			tr.Emit(obs.Event{T: l.eng.Now(), Kind: obs.WanDrop, Node: l.Node, A: 1, Len: size, Cause: obs.CauseWanQueueDrop})
		}
		return false
	}
	l.queued++
	if l.queued > l.Stats.MaxQueue {
		l.Stats.MaxQueue = l.queued
	}
	l.Stats.Sent++
	l.Stats.BytesSent += uint64(size)
	if tr := l.Trace; tr != nil {
		tr.Emit(obs.Event{T: l.eng.Now(), Kind: obs.WanEnqueue, Node: l.Node, A: int64(l.queued), Len: size})
	}
	now := l.eng.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	txDone := start.Add(l.serialization(size))
	l.busyUntil = txDone
	// The loss draw happens at send time, in event order, so the link's
	// source consumes the same sequence however delivery interleaves.
	dropped := l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss
	l.serializing.Push(wanMsg{size: size, deliver: deliver, lost: lost, dropped: dropped})
	l.eng.Schedule(txDone.Sub(now), l.onTxDone)
	return true
}

// txDone takes the message leaving the serializer: lost, or on its way.
func (l *WANLink) txDone() {
	m := l.serializing.Pop()
	l.queued--
	if m.dropped {
		l.Stats.LossDrops++
		if tr := l.Trace; tr != nil {
			tr.Emit(obs.Event{T: l.eng.Now(), Kind: obs.WanDrop, Node: l.Node, A: 2, Len: m.size, Cause: obs.CauseWanLoss})
		}
		if m.lost != nil {
			m.lost()
		}
		return
	}
	l.propagating.Push(m)
	l.eng.Schedule(l.cfg.Delay, l.onArrive)
}

// arrive hands the oldest propagating message to the far end.
func (l *WANLink) arrive() {
	m := l.propagating.Pop()
	l.Stats.Delivered++
	if m.deliver != nil {
		m.deliver()
	}
}
