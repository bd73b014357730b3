package cc

import "tcplp/internal/sim"

// Vegas adjustment thresholds, in segments of estimated queue occupancy
// (Brakmo & Peterson's alpha/beta/gamma, at the Linux defaults).
const (
	vegasAlpha = 2 // grow while fewer than this many segments are queued
	vegasBeta  = 4 // shrink once more than this many are queued
	vegasGamma = 1 // leave slow start once this many are queued
)

// vegas is TCP Vegas: delay-based congestion avoidance. It remembers the
// smallest RTT seen (the uncongested baseline) and, once per window,
// compares the expected rate cwnd/baseRTT against the actual rate
// cwnd/rtt. The difference, expressed as queue occupancy in segments
// diff = cwnd·(rtt−base)/rtt, drives the window: below alpha grow by one
// segment per RTT, above beta shrink by one, otherwise hold — so on the
// duty-cycled LLN paths where RTT inflation (not loss) is the first
// congestion signal, Vegas backs off before the queue overflows. Slow
// start is Reno-like but exits early once diff exceeds gamma. Losses
// fall back to the shared recovery shape with a gentler 3/4 decrease:
// delay, not loss, is its primary signal, so a corruption loss on a
// wireless hop should not halve the pipe.
type vegas struct {
	window
	baseRTT sim.Duration // smallest smoothed RTT observed
	lastRTT sim.Duration // most recent smoothed RTT
	acked   int          // bytes acked since the last per-window adjustment
}

func newVegas(p Params) *vegas {
	v := &vegas{}
	v.p = p
	v.policy = v
	return v
}

func (v *vegas) Init(now sim.Time) {
	v.window.Init(now)
	v.baseRTT = 0
	v.lastRTT = 0
	v.acked = 0
}

// ssthreshOnLoss backs off to 3/4 of the flight — gentler than Reno's
// half, because for a delay-based variant a loss on a lossy wireless
// link is usually corruption, not queue overflow.
func (v *vegas) ssthreshOnLoss(_ sim.Time, mss, flight int) int {
	return max(3*flight/4, 2*mss)
}

// Loss and recovery events restart the per-window accounting: an
// adjustment must observe one full clean window, not a stale partial
// window whose RTT sample spans the recovery episode.

func (v *vegas) OnDupAck(now sim.Time, mss, flight int) {
	v.window.OnDupAck(now, mss, flight)
	v.acked = 0
}

func (v *vegas) OnRTO(now sim.Time, mss, flight int) {
	v.window.OnRTO(now, mss, flight)
	v.acked = 0
}

func (v *vegas) OnECN(now sim.Time, mss, flight int) {
	v.window.OnECN(now, mss, flight)
	v.acked = 0
}

func (v *vegas) OnExitRecovery(now sim.Time, mss, acked, flight int, srtt sim.Duration) {
	v.window.OnExitRecovery(now, mss, acked, flight, srtt)
	v.acked = 0
}

// diffSegs is the estimated queue occupancy in segments:
// (expected − actual rate) · baseRTT = cwnd·(rtt − base)/rtt.
func (v *vegas) diffSegs(mss int) float64 {
	if v.baseRTT == 0 || v.lastRTT <= 0 {
		return 0
	}
	return float64(v.cwnd) * float64(v.lastRTT-v.baseRTT) / float64(v.lastRTT) / float64(mss)
}

func (v *vegas) OnAck(now sim.Time, mss, acked int, srtt sim.Duration) {
	if srtt > 0 {
		if v.baseRTT == 0 || srtt < v.baseRTT {
			v.baseRTT = srtt
		}
		v.lastRTT = srtt
	}
	if v.cwnd < v.ssthresh {
		// Slow start: Reno growth, but step out as soon as the delay
		// signal says a queue is forming.
		if v.diffSegs(mss) > vegasGamma {
			v.ssthresh = v.cwnd
			return
		}
		v.growReno(mss, acked)
		return
	}
	// Congestion avoidance: one adjustment per window of ACKs.
	v.acked += acked
	if v.acked < v.cwnd {
		return
	}
	v.acked = 0
	switch diff := v.diffSegs(mss); {
	case diff < vegasAlpha:
		v.cwnd += mss
	case diff > vegasBeta:
		v.cwnd -= mss
	}
	v.cwnd = min(v.cwnd, maxWindow)
	if v.cwnd < 2*mss {
		v.cwnd = 2 * mss
	}
}
