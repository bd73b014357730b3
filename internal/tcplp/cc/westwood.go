package cc

import "tcplp/internal/sim"

// westwood is TCP Westwood+: Reno-style growth, but on a congestion
// signal ssthresh is set from an end-to-end bandwidth estimate times the
// minimum RTT — the pipe size actually sustained — rather than blindly
// halving. Over lossy wireless links where drops are corruption, not
// queue overflow, this avoids the repeated halvings that starve Reno.
type westwood struct {
	window
	bwe      float64      // filtered bandwidth estimate, bytes/second
	bkBytes  int          // bytes acked since the last bandwidth sample
	lastSamp sim.Time     // end of the last sampling interval
	rttMin   sim.Duration // smallest smoothed RTT observed
}

func newWestwood(p Params) *westwood {
	w := &westwood{}
	w.p = p
	w.policy = w
	return w
}

func (w *westwood) Init(now sim.Time) {
	w.window.Init(now)
	w.bwe = 0
	w.bkBytes = 0
	w.lastSamp = now
	w.rttMin = 0
}

// account folds acked bytes into the bandwidth estimate. Westwood+
// samples once per RTT (not per ACK) to stay robust to ACK compression,
// then low-pass filters the samples: bwe ← 7/8·bwe + 1/8·sample.
func (w *westwood) account(now sim.Time, acked int, srtt sim.Duration) {
	if srtt > 0 && (w.rttMin == 0 || srtt < w.rttMin) {
		w.rttMin = srtt
	}
	w.bkBytes += acked
	if srtt <= 0 {
		return
	}
	interval := now.Sub(w.lastSamp)
	if interval > 8*srtt {
		// Idle gap (duty-cycle sleep, blackout, app pause): dividing the
		// accumulated bytes by the dead air would inject a near-zero
		// sample, so restart the sampling window at this ACK instead.
		w.bkBytes = acked
		w.lastSamp = now
		return
	}
	if interval < srtt {
		return
	}
	sample := float64(w.bkBytes) / interval.Seconds()
	if w.bwe == 0 {
		w.bwe = sample
	} else {
		w.bwe = (7*w.bwe + sample) / 8
	}
	w.bkBytes = 0
	w.lastSamp = now
}

// ssthreshOnLoss is the bandwidth-delay product BWE·RTTmin in bytes,
// floored at two segments. Before the first bandwidth sample exists
// (losses inside the first RTTs), fall back to the Reno flight/2 rather
// than collapsing every early loss to the floor.
func (w *westwood) ssthreshOnLoss(_ sim.Time, mss, flight int) int {
	if w.bwe == 0 {
		return max(flight/2, 2*mss)
	}
	est := int(w.bwe * w.rttMin.Seconds())
	// A congestion signal must never raise the threshold above the
	// running window (classic TCPW applies cwnd = min(cwnd, ssthresh)):
	// after an RTO collapse the low-pass-filtered estimate still
	// reflects pre-loss bandwidth and would otherwise re-flood the path.
	if est > w.cwnd {
		est = w.cwnd
	}
	return max(est, 2*mss)
}

func (w *westwood) OnAck(now sim.Time, mss, acked int, srtt sim.Duration) {
	w.account(now, acked, srtt)
	w.growReno(mss, acked)
}

// Recovery ACKs still carry bandwidth information; count them so the
// estimate entering the next loss episode reflects reality.
func (w *westwood) OnPartialAck(now sim.Time, mss, acked int, srtt sim.Duration) {
	w.account(now, acked, srtt)
	w.window.OnPartialAck(now, mss, acked, srtt)
}

func (w *westwood) OnExitRecovery(now sim.Time, mss, acked, flight int, srtt sim.Duration) {
	w.account(now, acked, srtt)
	w.window.OnExitRecovery(now, mss, acked, flight, srtt)
}
