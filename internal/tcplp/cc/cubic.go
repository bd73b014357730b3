package cc

import (
	"math"

	"tcplp/internal/sim"
)

// CUBIC constants (RFC 8312 §5): β is the multiplicative-decrease
// factor, C scales the cubic growth in segments per second cubed.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// cubic is RFC 8312 congestion control: after a loss the window follows
// a cubic of the time since the decrease — concave up to the pre-loss
// plateau W_max, then convex while probing beyond it — making growth a
// function of time rather than of the ACK rate, which matters over LLN
// paths whose RTTs stretch to seconds.
type cubic struct {
	window
	wMax     float64  // window (segments) at the last decrease
	k        float64  // time (s) for the cubic to return to wMax
	epoch    sim.Time // start of the current growth epoch
	hasEpoch bool
	wEst     float64 // Reno-equivalent window (segments), TCP-friendly region
	frac     float64 // sub-byte growth carried between ACKs
}

func newCubic(p Params) *cubic {
	c := &cubic{}
	c.p = p
	c.policy = c
	return c
}

func (c *cubic) Init(now sim.Time) {
	c.window.Init(now)
	c.wMax = 0
	c.hasEpoch = false
	c.frac = 0
}

func (c *cubic) OnAck(now sim.Time, mss, acked int, srtt sim.Duration) {
	if c.cwnd < c.ssthresh {
		c.cwnd += min(acked, mss)
		c.cwnd = min(c.cwnd, maxWindow)
		return
	}
	segs := float64(c.cwnd) / float64(mss)
	if !c.hasEpoch {
		c.hasEpoch = true
		c.epoch = now
		if segs < c.wMax {
			c.k = math.Cbrt((c.wMax - segs) / cubicC)
		} else {
			c.k = 0
			c.wMax = segs
		}
		c.wEst = segs
	}
	// Elapsed time into the epoch; RFC 8312 projects one RTT ahead so the
	// window reaches the cubic's value by the time the ACKs return.
	t := now.Sub(c.epoch).Seconds() + srtt.Seconds()
	target := cubicC*math.Pow(t-c.k, 3) + c.wMax
	// TCP-friendly region (§4.2): never grow slower than a Reno flow
	// seeing the same ACK stream would.
	c.wEst += 3 * (1 - cubicBeta) / (1 + cubicBeta) * float64(acked) / (segs * float64(mss))
	if c.wEst > target {
		target = c.wEst
	}
	var inc float64
	if target > segs {
		// Spread the climb to the target over one window of ACKs, never
		// faster than slow start.
		inc = (target - segs) / segs * float64(acked)
		if inc > float64(acked) {
			inc = float64(acked)
		}
	} else {
		// At or beyond the target: creep at 1 segment per 100 windows so
		// the probe never fully stalls.
		inc = float64(acked) / (100 * segs)
	}
	// Accumulate fractional bytes across ACKs: per-ACK increments are
	// routinely below one byte at LLN window sizes, and truncating them
	// would stall growth entirely.
	c.frac += inc
	whole := int(c.frac)
	c.frac -= float64(whole)
	c.cwnd += whole
	c.cwnd = min(c.cwnd, maxWindow)
}

// ssthreshOnLoss applies the CUBIC multiplicative decrease with fast
// convergence. RFC 8312 §4.5 derives both the plateau and the new
// threshold from cwnd (not flight), so a receiver-limited flow still
// remembers the window it was actually running.
func (c *cubic) ssthreshOnLoss(_ sim.Time, mss, _ int) int {
	segs := float64(c.cwnd) / float64(mss)
	if segs < c.wMax {
		// Fast convergence (§4.6): the flow ceiling shrank, so release
		// bandwidth by remembering a lower plateau.
		c.wMax = segs * (2 - cubicBeta) / 2
	} else {
		c.wMax = segs
	}
	// LLN-scale fix: operating windows here are a handful of segments;
	// without a floor, back-to-back losses drive W_max toward zero and
	// the concave phase vanishes, leaving pure convex blow-up from a
	// 1-segment plateau. Two segments is the smallest usable window
	// (matching the 2·MSS ssthresh floor below).
	if c.wMax < 2 {
		c.wMax = 2
	}
	c.hasEpoch = false
	c.frac = 0
	return max(int(segs*cubicBeta)*mss, 2*mss)
}
