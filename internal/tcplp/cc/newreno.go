package cc

import "tcplp/internal/sim"

// newReno is RFC 5681/6582 congestion control, byte-for-byte identical
// to the implementation formerly inlined in the connection code: AIMD
// with ssthresh = flight/2 on any congestion signal.
type newReno struct {
	window
}

func newNewReno(p Params) *newReno {
	r := &newReno{}
	r.p = p
	r.policy = r
	return r
}

func (r *newReno) OnAck(_ sim.Time, mss, acked int, _ sim.Duration) {
	r.growReno(mss, acked)
}

func (r *newReno) ssthreshOnLoss(_ sim.Time, mss, flight int) int {
	return max(flight/2, 2*mss)
}
