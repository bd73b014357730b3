package experiments

import (
	"math"

	"tcplp/internal/model"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
)

// The run metrics every measured table cell is made of. Each reads one
// run's Result; series collects a metric over a cell's seeds and
// Opts.cell reduces that to the cell. A bare flow metric (goodput,
// srtt, …) reads the run's first flow; ofFlow points it at another.

// series collects metric over a spec's runs, in seed order.
func series(sr *scenario.SpecResult, metric func(scenario.Result) float64) []float64 {
	out := make([]float64, len(sr.Runs))
	for i, run := range sr.Runs {
		out[i] = metric(run)
	}
	return out
}

// ofFlow reads a first-flow metric off flow i instead.
func ofFlow(i int, metric func(scenario.Result) float64) func(scenario.Result) float64 {
	return func(r scenario.Result) float64 {
		r.Flows = r.Flows[i:]
		return metric(r)
	}
}

func goodput(r scenario.Result) float64     { return r.Flows[0].GoodputKbps }
func srtt(r scenario.Result) float64        { return r.Flows[0].SRTTms }
func meanRTT(r scenario.Result) float64     { return r.Flows[0].MeanRTTms }
func medianRTT(r scenario.Result) float64   { return r.Flows[0].MedianRTTms }
func rttP10(r scenario.Result) float64      { return r.Flows[0].RTTp10ms }
func rttP90(r scenario.Result) float64      { return r.Flows[0].RTTp90ms }
func rttMax(r scenario.Result) float64      { return r.Flows[0].RTTMaxms }
func retransmits(r scenario.Result) float64 { return float64(r.Flows[0].Retransmits) }
func timeouts(r scenario.Result) float64    { return float64(r.Flows[0].Timeouts) }
func fastRtx(r scenario.Result) float64     { return float64(r.Flows[0].FastRtx) }
func recoveries(r scenario.Result) float64  { return float64(r.Flows[0].Timeouts + r.Flows[0].FastRtx) }
func radioDC(r scenario.Result) float64     { return r.Flows[0].RadioDC }
func cpuDC(r scenario.Result) float64       { return r.Flows[0].CPUDC }
func rto(r scenario.Result) float64         { return r.Flows[0].RTOms }
func idleDC(r scenario.Result) float64      { return r.Flows[0].IdleRadioDC }
func delivery(r scenario.Result) float64    { return r.Flows[0].DeliveryRatio }
func latP50(r scenario.Result) float64      { return r.Flows[0].LatencyP50ms }
func latP99(r scenario.Result) float64      { return r.Flows[0].LatencyP99ms }
func e2eDelivery(r scenario.Result) float64 { return r.Flows[0].E2EDeliveryRatio }
func creditShare(r scenario.Result) float64 { return r.Flows[0].CreditShare }
func cwndEvents(r scenario.Result) float64  { return float64(len(r.Flows[0].CwndTrace)) }

func jain(r scenario.Result) float64       { return r.Jain }
func aggKbps(r scenario.Result) float64    { return r.AggregateKbps }
func frames(r scenario.Result) float64     { return float64(r.FramesSent) }
func kevents(r scenario.Result) float64    { return float64(r.Events) / 1000 }
func creditJain(r scenario.Result) float64 { return r.Gateway.CreditJain }
func wanDrops(r scenario.Result) float64 {
	return float64(r.Gateway.WANQueueDrops + r.Gateway.WANLossDrops)
}
func wanQueueMax(r scenario.Result) float64 { return float64(r.Gateway.WANQueueMax) }

// atMaxWindow is the share of the first flow's cwnd samples at the full
// window (Fig. 7a).
func atMaxWindow(r scenario.Result) float64 {
	f := r.Flows[0]
	atMax := 0
	for _, p := range f.CwndTrace {
		if p.Cwnd >= f.WindowSegs*f.MSS {
			atMax++
		}
	}
	return float64(atMax) / float64(len(f.CwndTrace))
}

// msDur converts a milliseconds measurement back to a duration without
// losing the underlying microsecond count to float rounding.
func msDur(ms float64) sim.Duration { return sim.Duration(math.Round(ms * 1000)) }

// segLoss computes the paper's segment-loss metric for a single-flow
// run: in-network datagram losses (link failures, queue drops,
// reassembly timeouts — losses not masked by link retries) over the
// data segments the sender put on the wire. Counting TCP
// retransmissions instead would inflate it with spurious RTOs.
func segLoss(run scenario.Result) float64 {
	fl := run.Flows[0]
	dataSegs := float64(fl.SentBytes) / float64(fl.MSS)
	if dataSegs <= 0 {
		return 0
	}
	p := float64(run.LossEvents) / dataSegs
	if p > 1 {
		p = 1
	}
	return p
}

// eq2Pred is the Eq. 2 predicted goodput in kb/s for a single-flow run,
// from the run's own RTT, window, and measured segment loss.
func eq2Pred(run scenario.Result) float64 {
	fl := run.Flows[0]
	rtt := msDur(fl.SRTTms)
	if rtt <= 0 {
		rtt = msDur(fl.MedianRTTms)
	}
	return model.TCPlpGoodput(fl.MSS, rtt, fl.WindowSegs, segLoss(run)) / 1000
}

// anemRel pools one run's reliability exactly as §9.2 defines it: the
// shared delivery-ratio formula over reading counts summed across the
// sensors (the ratio of sums, not the mean of per-flow ratios).
func anemRel(run scenario.Result) float64 {
	var gen, deliv, backlog uint64
	for _, fl := range run.Flows {
		gen += fl.Generated
		deliv += fl.Delivered
		backlog += fl.Backlog
	}
	return scenario.DeliveryRatio(gen, deliv, backlog)
}

// gwE2ERel pools one run's end-to-end reliability the way anemRel pools
// the mesh hop: the shared delivery-ratio formula over reading counts
// summed across devices, with readings still inside the gateway-to-
// cloud pipeline (delivered to the gateway, neither credited nor lost)
// counted as backlog.
func gwE2ERel(run scenario.Result) float64 {
	var gen, e2e, backlog uint64
	for _, fl := range run.Flows {
		gen += fl.Generated
		e2e += fl.E2EDelivered
		backlog += fl.Backlog
		if fl.Delivered > fl.E2EDelivered+fl.WANLost {
			backlog += fl.Delivered - fl.E2EDelivered - fl.WANLost
		}
	}
	return scenario.DeliveryRatio(gen, e2e, backlog)
}

// anemRadioDC / anemCPUDC are the mean duty cycles across sensor nodes.
func anemRadioDC(run scenario.Result) float64 { return flowMean(run, radioDC, false) }
func anemCPUDC(run scenario.Result) float64   { return flowMean(run, cpuDC, false) }

// flowMean is the mean of a first-flow metric over a run's flows; with
// measured set, over the flows where it is positive only (0 if none).
func flowMean(run scenario.Result, metric func(scenario.Result) float64, measured bool) float64 {
	s, n := 0.0, 0
	for i := range run.Flows {
		if v := ofFlow(i, metric)(run); v > 0 || !measured {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// per10 normalizes a first-flow counter, summed over a run's flows in a
// window of length dur, to events per 10 minutes per node.
func per10(dur sim.Duration, count func(scenario.Result) float64) func(scenario.Result) float64 {
	return func(run scenario.Result) float64 {
		tens := dur.Seconds() / 600 // 10-minute spans in the window
		if tens <= 0 {
			return 0
		}
		total := 0.0
		for i := range run.Flows {
			total += ofFlow(i, count)(run)
		}
		return total / tens / float64(len(run.Flows))
	}
}

// anemMedianRTT is the mean across a run's sensor flows of each flow's
// median exchange RTT (ms); flows with no samples are skipped.
func anemMedianRTT(run scenario.Result) float64 { return flowMean(run, medianRTT, true) }

// anemRTO is the mean end-of-run RTO estimate (ms) across sensor flows
// that keep one (CoCoA's overall estimator; plain CoAP reports 0).
func anemRTO(run scenario.Result) float64 { return flowMean(run, rto, true) }

// anemRTOInflation is the run's RTO-to-median-RTT ratio — the Fig. 9
// inflation factor (0 when either side is unmeasured).
func anemRTOInflation(run scenario.Result) float64 {
	rtt := anemMedianRTT(run)
	if rtt <= 0 {
		return 0
	}
	return anemRTO(run) / rtt
}
