package mesh

import "math/rand"

// REDAction is the verdict for an arriving packet.
type REDAction int

// RED verdicts.
const (
	REDPass REDAction = iota
	REDMark
	REDDrop
)

// RED's parameters, sized for the paper's tiny relay queues.
const (
	// minThresh / maxThresh are the average-queue thresholds in packets.
	minThresh, maxThresh = 2, 6
	// maxMarkProb is the marking probability at maxThresh.
	maxMarkProb = 0.2
	// avgWeight is the EWMA weight for the average queue length.
	avgWeight = 0.25
)

// RED implements Random Early Detection (Floyd & Jacobson 1993) for relay
// queues. The paper's Appendix A uses RED together with ECN to restore
// fairness between competing TCP flows when buffers exceed four segments,
// so an ECN-capable packet is marked where another is dropped.
type RED struct {
	avg   float64
	count int

	Marks, Drops uint64
}

// NewRED returns a relay queue's RED state.
func NewRED() *RED { return &RED{} }

// OnArrival updates the average queue estimate with the instantaneous
// queue length qlen and returns the verdict for the arriving packet.
// canMark reports whether the packet is ECN-capable (ECT set).
func (r *RED) OnArrival(qlen int, canMark bool, rng *rand.Rand) REDAction {
	r.avg = (1-avgWeight)*r.avg + avgWeight*float64(qlen)
	switch {
	case r.avg < minThresh:
		r.count = 0
		return REDPass
	case r.avg >= maxThresh:
		r.count = 0
		return r.verdict(canMark)
	default:
		pb := maxMarkProb * (r.avg - minThresh) / (maxThresh - minThresh)
		pa := pb / (1 - float64(r.count)*pb)
		if pa < 0 || pa > 1 {
			pa = 1
		}
		r.count++
		if rng.Float64() < pa {
			r.count = 0
			return r.verdict(canMark)
		}
		return REDPass
	}
}

func (r *RED) verdict(canMark bool) REDAction {
	if canMark {
		r.Marks++
		return REDMark
	}
	r.Drops++
	return REDDrop
}
