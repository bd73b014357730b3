package coap

import (
	"math/rand"

	"tcplp/internal/sim"
)

// RFC 7252 transmission parameters.
const (
	AckTimeout      = 2 * sim.Second
	AckRandomFactor = 1.5
	MaxRetransmit   = 4
)

// RTOPolicy supplies the initial retransmission timeout for a new
// exchange and learns from exchange outcomes. Implementations: the RFC
// 7252 default (no learning) and CoCoA.
type RTOPolicy interface {
	// InitialRTO returns the first-transmission timeout for a new
	// exchange.
	InitialRTO(rng *rand.Rand) sim.Duration
	// Backoff returns the timeout after a retransmission, given the
	// previous timeout.
	Backoff(prev sim.Duration) sim.Duration
	// OnResponse records the outcome of a completed exchange: the time
	// from the FIRST transmission to the response, and how many
	// retransmissions occurred. This first-transmission convention is
	// exactly what misleads CoCoA under loss (§9.4): the sample for a
	// retransmitted exchange conflates queueing and retransmission
	// delays into "RTT".
	OnResponse(sinceFirstTx sim.Duration, retransmissions int)
	// OverallRTO returns the policy's current RTO estimate, or 0 for a
	// policy that keeps none.
	OverallRTO() sim.Duration
}

// DefaultPolicy is stock RFC 7252: RTO uniform in
// [ACK_TIMEOUT, ACK_TIMEOUT·ACK_RANDOM_FACTOR), binary exponential
// backoff, and a reset to the base timeout for the next message after
// giving up (the behaviour §9.4 notes lets CoAP keep pace under heavy
// loss).
type DefaultPolicy struct{}

// InitialRTO implements RTOPolicy.
func (DefaultPolicy) InitialRTO(rng *rand.Rand) sim.Duration {
	span := float64(AckTimeout) * (AckRandomFactor - 1)
	return AckTimeout + sim.Duration(rng.Float64()*span)
}

// Backoff implements RTOPolicy.
func (DefaultPolicy) Backoff(prev sim.Duration) sim.Duration { return prev * 2 }

// OnResponse implements RTOPolicy.
func (DefaultPolicy) OnResponse(sim.Duration, int) {}

// OverallRTO implements RTOPolicy: RFC 7252 keeps no estimate.
func (DefaultPolicy) OverallRTO() sim.Duration { return 0 }

// CoCoA implements draft-ietf-core-cocoa: two RTT estimators (strong for
// exchanges that completed without retransmission, weak for those that
// needed 1-2 retransmissions), blended into an overall RTO, with a
// variable backoff factor.
//
// The weak estimator measures RTT relative to the first transmission —
// it cannot know which (re)transmission the response answers — so under
// loss it absorbs whole retransmission timeouts as "RTT", inflating the
// overall RTO and delaying recovery until the application queue
// overflows. That is the §9.4 pathology; TCP timestamps make TCPlp
// immune.
type CoCoA struct {
	overall sim.Duration

	strongSRTT, strongVar sim.Duration
	strongValid           bool
	weakSRTT, weakVar     sim.Duration
	weakValid             bool
}

// NewCoCoA returns a CoCoA policy with the draft's 2 s initial RTO.
func NewCoCoA() *CoCoA {
	return &CoCoA{overall: 2 * sim.Second}
}

// InitialRTO implements RTOPolicy: the overall estimate, dithered by
// ACK_RANDOM_FACTOR as the draft specifies.
func (c *CoCoA) InitialRTO(rng *rand.Rand) sim.Duration {
	span := float64(c.overall) * (AckRandomFactor - 1)
	return c.overall + sim.Duration(rng.Float64()*span)
}

// Backoff implements RTOPolicy with the variable backoff factor: small
// RTOs back off aggressively (×3), large ones gently (×1.5).
func (c *CoCoA) Backoff(prev sim.Duration) sim.Duration {
	switch {
	case c.overall < sim.Second:
		return prev * 3
	case c.overall > 3*sim.Second:
		return prev + prev/2
	default:
		return prev * 2
	}
}

// OnResponse implements RTOPolicy: strong samples update with weight 0.5,
// weak samples (1-2 retransmissions; the draft ignores noisier ones)
// with weight 0.25 and a wider variance multiplier.
func (c *CoCoA) OnResponse(sinceFirstTx sim.Duration, retransmissions int) {
	switch {
	case retransmissions == 0:
		rto := c.updateEstimator(&c.strongSRTT, &c.strongVar, &c.strongValid, sinceFirstTx, 4)
		c.overall = (rto + c.overall) / 2
	case retransmissions <= 2:
		rto := c.updateEstimator(&c.weakSRTT, &c.weakVar, &c.weakValid, sinceFirstTx, 1)
		c.overall = (rto + 3*c.overall) / 4
	}
	// Clamp to the draft's sane range.
	c.overall = clamp(c.overall, 50*sim.Millisecond, 32*sim.Second)
}

func (c *CoCoA) updateEstimator(srtt, rttvar *sim.Duration, valid *bool, sample sim.Duration, k sim.Duration) sim.Duration {
	if !*valid {
		*srtt = sample
		*rttvar = sample / 2
		*valid = true
	} else {
		diff := *srtt - sample
		if diff < 0 {
			diff = -diff
		}
		*rttvar = (3**rttvar + diff) / 4
		*srtt = (7**srtt + sample) / 8
	}
	return *srtt + k**rttvar
}

// OverallRTO implements RTOPolicy: the current blended estimate (for
// tests and the Fig. 9 analysis).
func (c *CoCoA) OverallRTO() sim.Duration { return c.overall }

func clamp(d, lo, hi sim.Duration) sim.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
