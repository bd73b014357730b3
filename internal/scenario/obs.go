package scenario

import (
	"tcplp/internal/mac"
	"tcplp/internal/obs"
	"tcplp/internal/obs/journey"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// ObsConfig switches on cross-layer observability for every run a
// Runner executes. The zero/nil config is fully disabled: no trace is
// threaded and every layer hook stays a nil check. No setting draws RNG
// or schedules an event, so a run's Result is bit-identical under any
// config (FlowResult.Journey aside, which Journey fills in).
type ObsConfig struct {
	// Events receives the structured NDJSON event trace, tagged with
	// each run's name and seed.
	Events *obs.NDJSONWriter
	// Pcap captures every 802.15.4 frame put on air (pcapng,
	// Wireshark-openable).
	Pcap *obs.PcapWriter
	// MetricsInterval samples the per-layer metrics (Result.Layers) into
	// Events as NDJSON "metrics" records at this period of the measurement
	// window (0 disables; requires Events). The window then runs in
	// slices of this length and each sample is taken between two of
	// them, so it sees every event that fires at its instant.
	MetricsInterval sim.Duration
	// Journey reconstructs per-reading causal span trees and attaches
	// each telemetry flow's critical-path latency attribution to its
	// FlowResult. Every run folds its events into the reconstruction as
	// they are emitted and keeps none of them, so a traced run holds
	// O(readings + tagged packets), not O(events).
	Journey bool
	// JourneyOut streams each run's span trees as Chrome trace events
	// (chrome://tracing / Perfetto-loadable). Implies Journey.
	JourneyOut *journey.ChromeWriter
	// OnJourney, when set with Journey, receives each run's analyzed
	// report at collect time — the conformance checker's hook. Called
	// from worker goroutines when runs execute in parallel.
	OnJourney func(name string, seed int64, rep *journey.Report)
	// EventLayers filters the NDJSON event stream to these layers
	// (obs.Kind.Layer() names; empty keeps every layer).
	EventLayers []string
	// EventFlows filters the NDJSON event stream to events from the
	// named flows' source nodes (flow labels; empty keeps every node).
	EventFlows []string
	// Manifest fills each Result's Manifest. It needs no trace and moves
	// no other field.
	Manifest bool
}

// enabled reports whether the config asks for any instrumentation.
func (oc *ObsConfig) enabled() bool {
	return oc != nil && (oc.Events != nil || oc.Pcap != nil || oc.Journey || oc.JourneyOut != nil)
}

// journeyOn reports whether journey reconstruction is requested.
func (oc *ObsConfig) journeyOn() bool {
	return oc != nil && (oc.Journey || oc.JourneyOut != nil)
}

// buildTrace assembles the per-run trace fan-out. The NDJSON sink tags
// records with (run, seed) so parallel runs sharing one writer stay
// attributable.
func (rc *runContext) buildTrace(oc *ObsConfig) {
	if !oc.enabled() {
		return
	}
	rc.oc = oc
	tr := obs.NewTrace()
	if oc.Events != nil {
		var sink obs.Sink = oc.Events.Sink(rc.spec.Name, rc.seed)
		if len(oc.EventLayers) > 0 || len(oc.EventFlows) > 0 {
			fs := obs.NewFilterSink(sink, oc.EventLayers)
			rc.eventFilter = fs
			sink = fs
		}
		tr.AddSink(sink)
	}
	if oc.journeyOn() {
		rc.recorder = journey.NewRecorder()
		tr.AddSink(rc.recorder)
	}
	if oc.Pcap != nil {
		tr.AddFrameSink(oc.Pcap)
	}
	rc.trace = tr
}

// layers sums every layer's counters across the run's nodes into the
// per-layer metric map of Result.Layers and the "metrics" records. It
// reads existing statistics — no trace required — so Result.Layers is
// identical whether or not tracing is enabled, and deterministic per
// (spec, seed).
func (rc *runContext) layers() map[string]map[string]float64 {
	// Sum in locals and enter each metric once: a string-keyed map
	// update per node per counter is 200 k map operations on a 10k-node
	// run. The sums are exact integers far below 2^53.
	var (
		framesSent, framesRecv, rxDropped uint64
		ms                                mac.Stats
		reasmTimeouts                     uint64
		ns                                stack.NodeStats
		ts                                tcplp.StackStats
	)
	addTCP := func(st tcplp.StackStats) {
		ts.SegsIn += st.SegsIn
		ts.NoSocket += st.NoSocket
		ts.RSTsSent += st.RSTsSent
		ts.ConnsOpened += st.ConnsOpened
		ts.ConnsAccepted += st.ConnsAccepted
	}
	for _, n := range rc.net.Nodes {
		if n.Radio != nil {
			framesSent += n.Radio.FramesSent()
			framesRecv += n.Radio.FramesReceived()
			rxDropped += n.Radio.ReceptionsDropped()
		}
		st := n.MacStats()
		ms.DataSent += st.DataSent
		ms.DataDropped += st.DataDropped
		ms.Retries += st.Retries
		ms.CSMAFailures += st.CSMAFailures
		ms.Duplicates += st.Duplicates
		reasmTimeouts += n.ReassemblyTimeouts()
		nst := n.Stats()
		ns.PacketsSent += nst.PacketsSent
		ns.PacketsDelivered += nst.PacketsDelivered
		ns.FragmentsFwd += nst.FragmentsFwd
		ns.QueueDrops += nst.QueueDrops
		ns.REDDrops += nst.REDDrops
		ns.LinkFailures += nst.LinkFailures
		addTCP(n.TCPStats())
	}
	if h := rc.net.Host; h != nil {
		reasmTimeouts += h.ReassemblyTimeouts()
		hst := h.Stats()
		ns.PacketsSent += hst.PacketsSent
		ns.PacketsDelivered += hst.PacketsDelivered
		addTCP(h.TCPStats())
	}
	f := func(v uint64) float64 { return float64(v) }
	layers := map[string]map[string]float64{
		"phy": {"frames_sent": f(framesSent), "frames_recv": f(framesRecv), "rx_dropped": f(rxDropped)},
		"mac": {"data_sent": f(ms.DataSent), "data_dropped": f(ms.DataDropped), "retries": f(ms.Retries),
			"csma_failures": f(ms.CSMAFailures), "duplicates": f(ms.Duplicates)},
		"sixlowpan": {"reassembly_timeouts": f(reasmTimeouts)},
		"ip": {"packets_sent": f(ns.PacketsSent), "packets_delivered": f(ns.PacketsDelivered),
			"fragments_fwd": f(ns.FragmentsFwd), "queue_drops": f(ns.QueueDrops),
			"red_drops": f(ns.REDDrops), "link_failures": f(ns.LinkFailures)},
		"tcp": {"segs_in": f(ts.SegsIn), "no_socket": f(ts.NoSocket), "rsts_sent": f(ts.RSTsSent),
			"conns_opened": f(ts.ConnsOpened), "conns_accepted": f(ts.ConnsAccepted)},
	}
	if rc.gw != nil {
		gs, ws := rc.gw.Stats, rc.gw.WAN().Stats
		layers["gateway"] = map[string]float64{"accepted": f(gs.Accepted), "posts": f(gs.Posts),
			"reused": f(gs.Reused), "evicted": f(gs.Evicted), "readings_in": f(gs.ReadingsIn),
			"readings_out": f(gs.ReadingsOut), "readings_lost": f(gs.ReadingsLost)}
		layers["wan"] = map[string]float64{"sent": f(ws.Sent), "delivered": f(ws.Delivered),
			"queue_drops": f(ws.QueueDrops), "loss_drops": f(ws.LossDrops), "bytes_sent": f(ws.BytesSent)}
	}
	return layers
}

// runWindow runs the measurement window. Its samplers — the Fig. 10
// duty-cycle sample every DCSample and, with a metrics interval, a
// "metrics" record of rc.layers every MetricsInterval — each run at the
// end of every whole period, between two engine slices: a sample sees
// every event that fires at its instant, and the run is the one a single
// RunFor would have made.
func (rc *runContext) runWindow() {
	eng := rc.net.Eng
	end := eng.Now().Add(rc.spec.Duration.D())
	type sampler struct {
		period sim.Duration
		next   sim.Time
		take   func(t sim.Time)
	}
	var samplers []*sampler
	if p := rc.spec.DCSample.D(); p > 0 {
		samplers = append(samplers, &sampler{p, eng.Now().Add(p), func(sim.Time) { rc.sampleDC() }})
	}
	if oc := rc.oc; oc != nil && oc.Events != nil && oc.MetricsInterval > 0 {
		samplers = append(samplers, &sampler{oc.MetricsInterval, eng.Now().Add(oc.MetricsInterval), func(t sim.Time) {
			oc.Events.Metrics(rc.spec.Name, rc.seed, int64(t), rc.layers())
		}})
	}
	for {
		t, due := end, false
		for _, s := range samplers {
			if s.next <= t {
				t, due = s.next, true
			}
		}
		if !due {
			break
		}
		eng.RunUntil(t)
		for _, s := range samplers {
			if s.next == t {
				s.take(t)
				s.next = t.Add(s.period)
			}
		}
	}
	eng.RunUntil(end)
}
