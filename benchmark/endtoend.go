package main

import (
	"fmt"
	"time"

	"tcplp/internal/scenario"
)

// Repetition counts: at least minTimedReps timed repetitions however
// short -seconds is; -smoke cuts everything to two.
const (
	minTimedReps  = 3
	smokeReps     = 2
	smokeSetupRep = 2
)

// endToEnd is the -trace 0 run: one discarded warm-up repetition, timed
// repetitions with tracing off for opt.seconds, zero-window repetitions
// for setup_s, then one journey-traced repetition that yields the
// reading latencies and proves tracing bit-neutral.
func (h *harness) endToEnd() ([]metric, []string, error) {
	full, err := h.w.generate(h.opt.seed, fullWindow, h.opt.smoke)
	if err != nil {
		return nil, nil, err
	}
	zero, err := h.w.generate(h.opt.seed, zeroWindow, h.opt.smoke)
	if err != nil {
		return nil, nil, err
	}
	var timedObs *scenario.ObsConfig // tracing the zero-window repetitions pay too
	if h.w.Traced {
		timedObs = &scenario.ObsConfig{Journey: true}
	}
	timed := func(kind string) (*repetition, *journeyStats) {
		if h.w.Traced {
			return h.tracedRep(kind, full)
		}
		return h.counted(kind, full, nil, 1), nil
	}

	if r, _ := timed("warmup"); r == nil {
		return nil, nil, fmt.Errorf("warm-up repetition failed: %s", h.firstFailure)
	}
	minReps := minTimedReps
	if h.opt.smoke {
		minReps = smokeReps
	}
	var walls, allocsK, allocMB []float64
	var first *repetition
	var js *journeyStats
	deadline := time.Now().Add(time.Duration(h.opt.seconds * float64(time.Second)))
	for len(walls) < minReps || (!h.opt.smoke && time.Now().Before(deadline)) {
		r, j := timed("timed")
		if r == nil {
			return nil, nil, fmt.Errorf("timed repetition failed: %s", h.firstFailure)
		}
		if first == nil {
			first, js = r, j
		}
		walls = append(walls, r.wall)
		allocsK = append(allocsK, float64(r.mallocs)/1e3)
		allocMB = append(allocMB, float64(r.bytes)/(1<<20))
	}

	setupReps := h.w.SetupReps
	if h.opt.smoke {
		setupReps = smokeSetupRep
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		r, err := h.rep("setup", zero, timedObs, 1)
		if err != nil {
			return nil, nil, fmt.Errorf("zero-window repetition: %v", err)
		}
		setups = append(setups, r.wall)
	}
	// Sampled before the latency repetition below so that the journey
	// recorder's event buffer does not count against untraced workloads.
	rss := peakRSSMB()

	if js == nil {
		if _, js = h.tracedRep("latency", full); js == nil {
			return nil, nil, fmt.Errorf("traced repetition failed: %s", h.firstFailure)
		}
	}
	sim := simMetrics(first.runs, js)

	return []metric{
		sampled("wall_s", "s", walls),
		sampled("setup_s", "s", setups),
		exact("peak_rss_mb", "MB", "host", rss),
		sampled("allocs_k", "kallocs", allocsK),
		sampled("alloc_mb", "MB", allocMB),
		exact("goodput_kbps", "kb/s", "sim", sim.goodputKbps),
		exact("delivery_ratio", "ratio", "sim", sim.deliveryRatio),
		exact("latency_p50_ms", "ms", "sim", sim.latencyP50),
		exact("latency_p99_ms", "ms", "sim", sim.latencyP99),
		exact("radio_dc_pct", "%", "sim", sim.radioDCPct),
		exact("credit_jain", "index", "sim", sim.fairness),
	}, []string{js.note()}, nil
}

// simResults are the simulated end-to-end metrics of one repetition.
type simResults struct {
	goodputKbps   float64
	deliveryRatio float64
	latencyP50    float64
	latencyP99    float64
	radioDCPct    float64
	fairness      float64
}

// simMetrics derives the simulated end-to-end metrics from one
// repetition's results. Every workload reports every metric; where a
// workload has no telemetry readings (bulk streams) or no gateway, the
// closest quantity the program itself reports stands in:
//
//   - delivery_ratio: a telemetry flow's reading delivery ratio (end to
//     end past the WAN for gateway flows); for a bulk stream, 1 − the
//     paper's segment loss (in-network datagram losses over data
//     segments sent).
//   - latency_p50_ms / latency_p99_ms: pooled generation→final-sink
//     latency of every delivered reading of the traced repetition
//     (nearest-rank, as FlowResult's own percentiles); with no readings,
//     the mean over flows of the TCP round-trip median and p90 (the
//     highest quantile FlowResult carries).
//   - credit_jain: the gateway's Jain index over per-source cloud
//     credits; without a gateway, Jain over per-flow goodput.
func simMetrics(runs []*scenario.Result, js *journeyStats) simResults {
	var s simResults
	var flows, radios int
	var rttP50, rttP90 float64
	for _, run := range runs {
		s.goodputKbps += run.AggregateKbps
		s.fairness += fairness(run)
		for i := range run.Flows {
			f := &run.Flows[i]
			flows++
			s.deliveryRatio += delivery(run, f)
			rttP50 += f.MedianRTTms
			rttP90 += f.RTTp90ms
			if f.RadioDC > 0 {
				s.radioDCPct += f.RadioDC * 100
				radios++
			}
		}
	}
	n := float64(len(runs))
	s.goodputKbps /= n
	s.fairness /= n
	s.deliveryRatio /= float64(flows)
	if radios > 0 {
		s.radioDCPct /= float64(radios)
	}
	if js.latencyMs.N() > 0 {
		s.latencyP50 = js.latencyMs.Median()
		s.latencyP99 = js.latencyMs.Quantile(0.99)
	} else {
		s.latencyP50 = rttP50 / float64(flows)
		s.latencyP99 = rttP90 / float64(flows)
	}
	return s
}

// fairness is a run's credit_jain.
func fairness(run *scenario.Result) float64 {
	if run.Gateway != nil {
		return run.Gateway.CreditJain
	}
	return run.Jain
}

// delivery is one flow's delivery_ratio.
func delivery(run *scenario.Result, f *scenario.FlowResult) float64 {
	switch {
	case f.Gateway:
		return f.E2EDeliveryRatio
	case f.Pattern == scenario.PatternAnemometer:
		return f.DeliveryRatio
	}
	return 1 - segmentLoss(run, f)
}

// segmentLoss is the paper's Fig. 6b metric for a single-flow run:
// in-network datagram losses over the data segments the sender put on
// the wire.
func segmentLoss(run *scenario.Result, f *scenario.FlowResult) float64 {
	if f.SentBytes <= 0 || f.MSS <= 0 {
		return 0
	}
	p := float64(run.LossEvents) / (float64(f.SentBytes) / float64(f.MSS))
	if p > 1 {
		p = 1
	}
	return p
}
