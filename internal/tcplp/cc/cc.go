// Package cc implements pluggable congestion control for the tcplp
// transport. Each Algorithm owns a connection's congestion window and
// slow-start threshold and mutates them in response to the protocol
// events the connection reports: ACKs of new data, duplicate ACKs,
// retransmission timeouts, and ECN congestion echoes.
//
// The split mirrors the Linux/ns-3 module boundary: the connection keeps
// the loss-recovery machinery (what to retransmit, when recovery ends)
// while the algorithm decides window sizes — how fast to grow and how
// far to back off. Five variants are provided: NewReno (RFC 5681/6582,
// behaviour-identical to the original inline implementation), CUBIC
// (RFC 8312), Westwood+ (bandwidth-estimate-driven backoff for lossy
// wireless links), BBR (model-based: a windowed-max bandwidth estimate
// and windowed-min RTT drive both the window and a pacing rate), and
// Vegas (delay-based: queue occupancy estimated from RTT inflation
// drives the window, the natural fit for duty-cycled paths where RTT,
// not loss, is the first congestion signal).
//
// An Algorithm may additionally implement Pacer; the connection then
// spreads segment releases across the RTT at the returned rate instead
// of bursting ACK-clocked windows — which suits duty-cycled radios far
// better than back-to-back trains (Ayers et al.).
package cc

import (
	"fmt"
	"strings"

	"tcplp/internal/sim"
)

// Variant names a congestion-control algorithm.
type Variant string

// Registered variants.
const (
	NewReno  Variant = "newreno"
	Cubic    Variant = "cubic"
	Westwood Variant = "westwood"
	Bbr      Variant = "bbr"
	Vegas    Variant = "vegas"
)

// Variants lists the registered algorithms in presentation order (kept
// in sync with the constructor registry by TestVariantsRoundTrip).
func Variants() []Variant { return []Variant{NewReno, Cubic, Westwood, Bbr, Vegas} }

// Parse resolves a user-supplied variant name, accepting the common
// aliases ("reno", "westwood+", ...). An empty string selects NewReno.
func Parse(s string) (Variant, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "reno", "newreno", "new-reno":
		return NewReno, nil
	case "cubic":
		return Cubic, nil
	case "westwood", "westwood+", "westwoodplus", "westwood-plus":
		return Westwood, nil
	case "bbr":
		return Bbr, nil
	case "vegas":
		return Vegas, nil
	}
	return "", fmt.Errorf("cc: unknown variant %q (have newreno, cubic, westwood, bbr, vegas)", s)
}

// maxWindow caps congestion-avoidance growth, in bytes.
const maxWindow = 1 << 22

// Params seeds an Algorithm at construction.
type Params struct {
	// InitialWindow is the initial congestion window in bytes
	// (RFC 6928-style: InitialCwndSegs × MSS).
	InitialWindow int
}

// Algorithm owns cwnd and ssthresh for one connection. The MSS is passed
// per event because it is only final after the SYN exchange clamps it to
// the peer's. Methods are invoked from the simulation goroutine only.
type Algorithm interface {
	// Init seeds the window state when the connection starts.
	Init(now sim.Time)
	// Cwnd is the congestion window in bytes.
	Cwnd() int
	// Ssthresh is the slow-start threshold in bytes.
	Ssthresh() int

	// OnAck handles an ACK of acked bytes that advances snd.una outside
	// fast recovery — the slow-start / congestion-avoidance growth path.
	// srtt is the current smoothed RTT estimate (0 until the first
	// sample).
	OnAck(now sim.Time, mss, acked int, srtt sim.Duration)
	// OnDupAck handles the third duplicate ACK: multiplicative decrease
	// plus the RFC 5681 fast-recovery entry (cwnd = ssthresh + 3 MSS).
	OnDupAck(now sim.Time, mss, flight int)
	// OnDupAckInflate handles the fourth and later duplicate ACKs during
	// recovery: inflate the window by one segment (packet conservation).
	OnDupAckInflate(mss int)
	// OnPartialAck handles a partial new ACK during recovery: deflate by
	// the amount acked, allow one more segment (RFC 6582). srtt is the
	// current smoothed RTT (bandwidth-estimating variants keep sampling
	// through recovery).
	OnPartialAck(now sim.Time, mss, acked int, srtt sim.Duration)
	// OnExitRecovery handles the full ACK that ends recovery. flight is
	// the number of bytes still outstanding after the ACK.
	OnExitRecovery(now sim.Time, mss, acked, flight int, srtt sim.Duration)
	// OnRTO handles a retransmission timeout: collapse to one segment
	// and restart in slow start.
	OnRTO(now sim.Time, mss, flight int)
	// OnECN handles an ECN congestion echo: reduce the window without
	// any loss having occurred (RFC 3168 §6.1.2).
	OnECN(now sim.Time, mss, flight int)
}

// Pacer is the optional pacing extension of Algorithm. A variant that
// returns a positive rate has its data segments released by the
// connection's send timer — spread across the RTT at the given rate —
// instead of burst-clocked by ACK arrival. ACK-clocked variants simply
// do not implement the interface.
type Pacer interface {
	// PacingRate returns the current send rate in bytes per second; 0
	// disables pacing. The connection supplies the effective MSS and its
	// smoothed RTT (0 before the first sample) so the rate can be
	// derived before the first bandwidth measurement exists.
	PacingRate(mss int, srtt sim.Duration) float64
}

// registry maps each variant to its constructor; Valid and New both
// read it, so they cannot diverge when a variant is added.
var registry = map[Variant]func(Params) Algorithm{
	NewReno:  func(p Params) Algorithm { return newNewReno(p) },
	Cubic:    func(p Params) Algorithm { return newCubic(p) },
	Westwood: func(p Params) Algorithm { return newWestwood(p) },
	Bbr:      func(p Params) Algorithm { return newBBR(p) },
	Vegas:    func(p Params) Algorithm { return newVegas(p) },
}

// Valid reports whether v names a registered algorithm (or is empty,
// selecting NewReno).
func Valid(v Variant) bool {
	if v == "" {
		return true
	}
	_, ok := registry[v]
	return ok
}

// New constructs the named algorithm; an empty variant selects NewReno.
func New(v Variant, p Params) (Algorithm, error) {
	if v == "" {
		v = NewReno
	}
	mk, ok := registry[v]
	if !ok {
		return nil, fmt.Errorf("cc: unknown variant %q", v)
	}
	return mk(p), nil
}

// ssthresher is the per-variant decrease policy: the post-loss
// slow-start threshold. flight is the bytes outstanding at the loss,
// clamped to the send window.
type ssthresher interface {
	ssthreshOnLoss(now sim.Time, mss, flight int) int
}

// window is the cwnd/ssthresh state plus the loss-response shape every
// variant shares — fast-recovery entry, per-dupack inflation,
// partial-ACK deflation, exit deflation, RTO collapse, ECN reduction —
// parameterized only by the variant's ssthreshOnLoss policy. Variants
// embed it and set policy to themselves.
type window struct {
	cwnd     int
	ssthresh int
	p        Params
	policy   ssthresher
}

func (w *window) Cwnd() int     { return w.cwnd }
func (w *window) Ssthresh() int { return w.ssthresh }

func (w *window) Init(sim.Time) {
	w.cwnd = w.p.InitialWindow
	w.ssthresh = 1 << 30
}

// OnDupAck applies the variant's decrease and the RFC 5681 §3.2 entry:
// the window becomes ssthresh plus the three segments the duplicate
// ACKs signalled have left the network.
func (w *window) OnDupAck(now sim.Time, mss, flight int) {
	w.ssthresh = w.policy.ssthreshOnLoss(now, mss, flight)
	w.cwnd = w.ssthresh + 3*mss
}

func (w *window) OnRTO(now sim.Time, mss, flight int) {
	w.ssthresh = w.policy.ssthreshOnLoss(now, mss, flight)
	w.cwnd = mss
}

func (w *window) OnECN(now sim.Time, mss, flight int) {
	w.ssthresh = w.policy.ssthreshOnLoss(now, mss, flight)
	w.cwnd = w.ssthresh
}

func (w *window) OnDupAckInflate(mss int) {
	w.cwnd += mss
}

func (w *window) OnPartialAck(_ sim.Time, mss, acked int, _ sim.Duration) {
	w.cwnd = max(w.cwnd-acked+mss, mss)
}

func (w *window) OnExitRecovery(_ sim.Time, mss, _, flight int, _ sim.Duration) {
	w.cwnd = max(min(w.ssthresh, flight+mss), mss)
}

// growReno is the RFC 5681 growth shared by NewReno and Westwood+:
// slow start below ssthresh, then one segment per window of ACKs.
func (w *window) growReno(mss, acked int) {
	if w.cwnd < w.ssthresh {
		w.cwnd += min(acked, mss)
	} else {
		w.cwnd += max(mss*mss/w.cwnd, 1)
	}
	w.cwnd = min(w.cwnd, maxWindow)
}
