package tcplp

import "tcplp/internal/sim"

// RTT defaults (RFC 6298 with embedded-friendly clamps; FreeBSD uses a
// 30 ms floor, we keep 200 ms like many LLN stacks given multi-second
// mesh RTTs).
const (
	DefaultRTOMin = 200 * sim.Millisecond
	DefaultRTOMax = 60 * sim.Second
	InitialRTO    = 1 * sim.Second
)

// rttEstimator implements the RFC 6298 smoothed RTT/variance estimator.
// With TCP timestamps every ACK yields an unambiguous sample — even for
// retransmitted segments — which is exactly the property that saves TCPlp
// from the CoCoA retransmission-ambiguity pathology (§9.4).
type rttEstimator struct {
	srtt   sim.Duration
	rttvar sim.Duration
	rto    sim.Duration
	valid  bool

	rtoMin sim.Duration
}

func newRTTEstimator(rtoMin sim.Duration) *rttEstimator {
	if rtoMin == 0 {
		rtoMin = DefaultRTOMin
	}
	return &rttEstimator{rto: InitialRTO, rtoMin: rtoMin}
}

// Sample folds one measured round-trip time into the estimator.
func (e *rttEstimator) Sample(rtt sim.Duration) {
	if rtt <= 0 {
		rtt = sim.Microsecond
	}
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
	} else {
		// RFC 6298: RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT−R|, SRTT ← 7/8·SRTT + 1/8·R.
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	rto := e.srtt + max(4*e.rttvar, sim.Millisecond)
	e.rto = clampDur(rto, e.rtoMin, DefaultRTOMax)
}

// RTO returns the current retransmission timeout (before backoff).
func (e *rttEstimator) RTO() sim.Duration { return e.rto }

// SRTT returns the smoothed RTT (0 until the first sample).
func (e *rttEstimator) SRTT() sim.Duration { return e.srtt }

// Backoff returns the RTO doubled shift times, clamped to the maximum
// (Karn's algorithm's exponential backoff).
func (e *rttEstimator) Backoff(shift int) sim.Duration {
	rto := e.rto
	for i := 0; i < shift; i++ {
		rto *= 2
		if rto >= DefaultRTOMax {
			return DefaultRTOMax
		}
	}
	return clampDur(rto, e.rtoMin, DefaultRTOMax)
}

func clampDur(d, lo, hi sim.Duration) sim.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
