package experiments

import "tcplp/internal/scenario"

// rtoInflation is the mechanism study behind the Fig. 9a CoCoA collapse:
// an injected_loss × protocols sweep like Fig. 9 (CoCoA, CoAP) rendering
// the retransmission timers themselves — the flow's end-of-run RTO
// estimate (CoCoA's overall estimator, read through
// coap.RTOPolicy.OverallRTO; RFC 7252 CoAP keeps no estimator and reports 0)
// against the median measured exchange RTT, plus their ratio. Under loss
// CoCoA's weak estimator feeds retransmission-inflated RTT samples back
// into the overall RTO, which balloons relative to the true path RTT,
// stretching recovery and collapsing delivery while plain CoAP's fixed
// timer keeps pace.
func rtoInflation(o Opts, res []*scenario.SpecResult) *Table {
	return pivot(o, "rto_inflation", "CoCoA RTO inflation vs injected loss", groups(res, 1), []column{
		label("Loss", func(sr *scenario.SpecResult) string { return pct(sr.Spec.Net.InjectedLoss) }),
		label("Protocol", protoName),
		m("Reliability", 0, anemRel, pct), m("RTT p50 ms", 0, anemMedianRTT, f1),
		m("RTO ms", 0, anemRTO, f1), m("RTO/RTT", 0, anemRTOInflation, f2),
	}, "paper Fig. 9: CoCoA's overall RTO inflates well past the path RTT as loss grows; CoAP's fixed 2-3 s timer reports no estimator (RTO 0)")
}
