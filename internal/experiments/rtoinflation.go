package experiments

import "tcplp/internal/scenario"

// rtoInflation is the mechanism study behind the Fig. 9a CoCoA collapse:
// an injected_loss × protocols sweep like Fig. 9 (CoCoA, CoAP) rendering
// the retransmission timers themselves — the flow's end-of-run RTO
// estimate (CoCoA's overall estimator, observed through
// coap.SamplingPolicy; RFC 7252 CoAP keeps no estimator and reports 0)
// against the median measured exchange RTT, plus their ratio. Under loss
// CoCoA's weak estimator feeds retransmission-inflated RTT samples back
// into the overall RTO, which balloons relative to the true path RTT,
// stretching recovery and collapsing delivery while plain CoAP's fixed
// timer keeps pace.
func rtoInflation(o Opts, res []*scenario.SpecResult) *Table {
	t := &Table{
		ID:    "rto_inflation",
		Title: "CoCoA RTO inflation vs injected loss",
		Columns: []string{"Loss", "Protocol", "Reliability",
			"RTT p50 ms", "RTO ms", "RTO/RTT"},
	}
	for _, sr := range res {
		t.AddRow(pct(sr.Spec.Net.InjectedLoss), protoName(sr),
			o.cell(runSeries(sr, anemRel), pct),
			o.cell(runSeries(sr, anemMedianRTT), f1),
			o.cell(runSeries(sr, anemRTO), f1),
			o.cell(runSeries(sr, anemRTOInflation), f2))
	}
	t.Note("paper Fig. 9: CoCoA's overall RTO inflates well past the path RTT as loss grows; CoAP's fixed 2-3 s timer reports no estimator (RTO 0)")
	return t
}

// anemMedianRTT is the mean across a run's sensor flows of each flow's
// median exchange RTT (ms); flows with no samples are skipped.
func anemMedianRTT(run scenario.Result) float64 {
	s, n := 0.0, 0
	for _, fl := range run.Flows {
		if fl.MedianRTTms > 0 {
			s += fl.MedianRTTms
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// anemRTO is the mean end-of-run RTO estimate (ms) across sensor flows
// that keep one (CoCoA's overall estimator; plain CoAP reports 0).
func anemRTO(run scenario.Result) float64 {
	s, n := 0.0, 0
	for _, fl := range run.Flows {
		if fl.RTOms > 0 {
			s += fl.RTOms
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// anemRTOInflation is the run's RTO-to-median-RTT ratio — the Fig. 9
// inflation factor (0 when either side is unmeasured).
func anemRTOInflation(run scenario.Result) float64 {
	rtt := anemMedianRTT(run)
	if rtt <= 0 {
		return 0
	}
	return anemRTO(run) / rtt
}
