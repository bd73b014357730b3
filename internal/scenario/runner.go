package scenario

import (
	"runtime"
	"sync"

	"tcplp/internal/obs/journey"
)

// CwndPoint is one congestion-window observation of a traced flow.
type CwndPoint struct {
	T        Duration `json:"t"` // absolute simulation time
	Cwnd     int      `json:"cwnd"`
	Ssthresh int      `json:"ssthresh"`
}

// FlowResult is one flow's measurements over one run's window. Fields
// a protocol cannot measure stay zero: a CoAP flow has no SRTT, a bulk
// TCP stream has no per-reading latency (and reports DeliveryRatio 1).
type FlowResult struct {
	Label string `json:"label"`
	// Gateway marks a flow terminating at the border-router gateway
	// tier: Delivered then covers only the mesh hop, and the e2e fields
	// below cover the full device → gateway → cloud path.
	Gateway     bool    `json:"gateway,omitempty"`
	Protocol    string  `json:"protocol"`
	Variant     string  `json:"variant,omitempty"`
	WindowSegs  int     `json:"window_segs,omitempty"`
	MSS         int     `json:"mss"`
	Pattern     string  `json:"pattern"`
	GoodputKbps float64 `json:"goodput_kbps"`
	Bytes       int     `json:"bytes"`
	// SentBytes counts sender payload bytes over the window, including
	// retransmissions — the denominator of the paper's segment-loss
	// metric (losses / SentBytes·MSS⁻¹).
	SentBytes int `json:"sent_bytes"`
	// Retransmits counts TCP retransmissions or CoAP CON retries;
	// Timeouts counts TCP RTOs or abandoned CoAP exchanges.
	Retransmits uint64  `json:"retransmits"`
	Timeouts    uint64  `json:"timeouts"`
	FastRtx     uint64  `json:"fast_rtx"`
	SRTTms      float64 `json:"srtt_ms"`
	MeanRTTms   float64 `json:"mean_rtt_ms"`
	MedianRTTms float64 `json:"median_rtt_ms"`
	RTTp10ms    float64 `json:"rtt_p10_ms"`
	RTTp90ms    float64 `json:"rtt_p90_ms"`
	RTTMaxms    float64 `json:"rtt_max_ms"`
	// Telemetry delivery (anemometer flows): window reading counts, the
	// end-of-window backlog (readings queued or in flight — not
	// losses), the backlog-excluded §9.2 delivery ratio, and
	// per-reading generation→delivery latency percentiles.
	Generated     uint64  `json:"generated,omitempty"`
	Delivered     uint64  `json:"delivered,omitempty"`
	Backlog       uint64  `json:"backlog,omitempty"`
	DeliveryRatio float64 `json:"delivery_ratio"`
	LatencyP50ms  float64 `json:"lat_p50_ms"`
	LatencyP99ms  float64 `json:"lat_p99_ms"`
	// Gateway-flow end-to-end accounting: readings credited at the cloud
	// collector behind the WAN, readings lost crossing it, the resulting
	// delivery ratio (gateway-to-cloud in-flight counts as backlog), and
	// this source's share of the collector's credited readings.
	E2EDelivered     uint64  `json:"e2e_delivered,omitempty"`
	WANLost          uint64  `json:"wan_lost,omitempty"`
	E2EDeliveryRatio float64 `json:"e2e_delivery_ratio,omitempty"`
	CreditShare      float64 `json:"credit_share,omitempty"`
	// RTOms is the flow's retransmission-timeout estimate at window
	// close: TCP's RTO, or CoCoA's overall estimate (0 for policies that
	// keep none) — the Fig. 9 RTO-inflation observable.
	RTOms   float64 `json:"rto_ms,omitempty"`
	RadioDC float64 `json:"radio_dc"`
	CPUDC   float64 `json:"cpu_dc"`
	// IdleRadioDC is the mesh endpoint's duty cycle over the idle phase
	// of an idle_window spec (Fig. 14).
	IdleRadioDC float64 `json:"idle_radio_dc,omitempty"`
	// CwndTrace holds the flow's cwnd/ssthresh trajectory when the
	// flow's Trace knob is set (Fig. 7a).
	CwndTrace []CwndPoint `json:"cwnd_trace,omitempty"`
	// Journey is the flow's per-reading causal latency attribution —
	// populated only when the runner's ObsConfig enables journey
	// tracing, nil (and absent from JSON) otherwise, so results stay
	// bit-identical with tracing off.
	Journey *journey.FlowReport `json:"journey,omitempty"`
}

// GatewayResult is one run's gateway-tier report: windowed connection
// table and WAN counters plus fairness over per-source cloud credits.
type GatewayResult struct {
	Accepted    uint64 `json:"accepted"` // LLN-side TCP connections accepted
	Reused      uint64 `json:"reused"`   // arrivals finding a live table entry
	Evicted     uint64 `json:"evicted"`  // entries closed by capacity or idleness
	ActiveConns int    `json:"active_conns"`
	WANSent     uint64 `json:"wan_sent"`
	// WANDelivered/WANQueueDrops/WANLossDrops split the WAN's fate
	// counts: messages that reached the cloud, tail drops at the uplink
	// queue, and random in-flight losses.
	WANDelivered  uint64 `json:"wan_delivered"`
	WANQueueDrops uint64 `json:"wan_queue_drops"`
	WANLossDrops  uint64 `json:"wan_loss_drops"`
	WANQueueDepth int    `json:"wan_queue_depth"` // at window close
	WANQueueMax   int    `json:"wan_queue_max"`   // peak over the window
	// CreditJain is Jain's index over the gateway flows' cloud-credited
	// reading counts — upstream fairness measured end-to-end.
	CreditJain float64 `json:"credit_jain"`
}

// Result is one (spec, seed) run: per-flow measurements plus the
// cross-flow fairness and network totals.
type Result struct {
	Name          string       `json:"name"`
	Seed          int64        `json:"seed"`
	Flows         []FlowResult `json:"flows"`
	Jain          float64      `json:"jain"`
	AggregateKbps float64      `json:"aggregate_kbps"`
	FramesSent    uint64       `json:"frames_sent"`
	LossEvents    uint64       `json:"loss_events"`
	// Events counts simulator events processed over the whole run
	// (warmup included) — the denominator of the engine-performance
	// metrics (events/sec, allocs/event). Deterministic per (spec, seed).
	Events uint64 `json:"events,omitempty"`
	// Gateway reports the gateway tier of a spec that installs one.
	Gateway *GatewayResult `json:"gateway,omitempty"`
	// DCSamples holds the periodic mean radio duty cycle across flow
	// source nodes of a dc_sample spec (Fig. 10's hourly series).
	DCSamples []float64 `json:"dc_samples,omitempty"`
	// Layers is the per-layer metrics summed across the run's nodes
	// (layer → metric → value). It is computed from plain
	// counters, so it is populated — and identical — whether or not
	// tracing is enabled.
	Layers map[string]map[string]float64 `json:"layers,omitempty"`
	// Manifest is what the run cost the simulator (host time,
	// allocations, engine and channel counters): filled only when the
	// runner's ObsConfig asks for it, and never part of what a run
	// measured, so a digest of the Result should clear it.
	Manifest *Manifest `json:"manifest,omitempty"`
}

// layer reads one registry value ("" layers read as 0 — CSV-friendly).
func (r *Result) layer(layer, metric string) float64 {
	if m := r.Layers[layer]; m != nil {
		return m[metric]
	}
	return 0
}

// SpecResult is one spec's runs, in seed order.
type SpecResult struct {
	Spec *Spec    `json:"spec"`
	Runs []Result `json:"runs"`
}

// Runner executes specs across a worker pool. Each (spec, seed) pair is
// an independent simulation — its own engine, channel, and stacks — so
// the pool only changes wall-clock time, never results: each run lands
// in its (spec, seed) slot, and a serial run (Workers=1) is
// bit-identical to a parallel one.
type Runner struct {
	// Workers bounds concurrent runs; 0 uses all CPUs.
	Workers int
	// Obs switches on cross-layer observability for every run (nil
	// disables it). Shared writers inside are mutex-guarded, so parallel
	// runs interleave whole records; use Workers=1 for a strictly
	// ordered trace.
	Obs *ObsConfig
}

// RunAll expands every sweep, executes every (cell, seed) pair across
// the pool, and returns one SpecResult per expanded cell, in input
// order (a spec without a sweep is its own single cell). It checks
// nothing: its specs come from ParseSpecs or experiments.Load (cells
// Rewrite.Apply made from ParseSpecs' specs), which refuse what the
// build cannot run.
func (r *Runner) RunAll(specs []*Spec) ([]*SpecResult, error) {
	var cells []*Spec
	for _, s := range specs {
		cells = append(cells, s.Expand()...)
	}
	type job struct{ si, ri int }
	var jobs []job
	out := make([]*SpecResult, len(cells))
	defaulted := make([]*Spec, len(cells))
	for si, s := range cells {
		defaulted[si] = s.withDefaults()
		out[si] = &SpecResult{Spec: s, Runs: make([]Result, len(defaulted[si].Seeds))}
		for ri := range defaulted[si].Seeds {
			jobs = append(jobs, job{si, ri})
		}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	errs := make([]error, len(jobs))
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range ch {
				j := jobs[ji]
				d := defaulted[j.si]
				res, err := r.runDefaulted(d, d.Seeds[j.ri])
				if err != nil {
					errs[ji] = err
					continue
				}
				out[j.si].Runs[j.ri] = res
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
