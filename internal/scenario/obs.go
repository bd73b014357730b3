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
	// MetricsInterval samples the per-layer metric registry into Events
	// as NDJSON "metrics" records at this period of the measurement
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

// layerRegistry aggregates every layer's counters across the run's
// nodes into the named-metric registry. It reads existing statistics —
// no trace required — so Result.Layers is identical whether or not
// tracing is enabled, and deterministic per (spec, seed).
func (rc *runContext) layerRegistry() *obs.Registry {
	// Sum in locals and enter each metric once: a string-keyed registry
	// update per node per counter is 200 k map operations on a 10k-node
	// run. The sums are exact integers far below 2^53, so the float64
	// registry ends up with the same values either way.
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
		ns.PacketsSent += n.Stats.PacketsSent
		ns.PacketsDelivered += n.Stats.PacketsDelivered
		ns.FragmentsFwd += n.Stats.FragmentsFwd
		ns.QueueDrops += n.Stats.QueueDrops
		ns.REDDrops += n.Stats.REDDrops
		ns.LinkFailures += n.Stats.LinkFailures
		addTCP(n.TCPStats())
	}
	if h := rc.net.Host; h != nil {
		reasmTimeouts += h.ReassemblyTimeouts()
		ns.PacketsSent += h.Stats.PacketsSent
		ns.PacketsDelivered += h.Stats.PacketsDelivered
		addTCP(h.TCPStats())
	}
	reg := obs.NewRegistry()
	reg.AddUint("phy", "frames_sent", framesSent)
	reg.AddUint("phy", "frames_recv", framesRecv)
	reg.AddUint("phy", "rx_dropped", rxDropped)
	reg.AddUint("mac", "data_sent", ms.DataSent)
	reg.AddUint("mac", "data_dropped", ms.DataDropped)
	reg.AddUint("mac", "retries", ms.Retries)
	reg.AddUint("mac", "csma_failures", ms.CSMAFailures)
	reg.AddUint("mac", "duplicates", ms.Duplicates)
	reg.AddUint("sixlowpan", "reassembly_timeouts", reasmTimeouts)
	reg.AddUint("ip", "packets_sent", ns.PacketsSent)
	reg.AddUint("ip", "packets_delivered", ns.PacketsDelivered)
	reg.AddUint("ip", "fragments_fwd", ns.FragmentsFwd)
	reg.AddUint("ip", "queue_drops", ns.QueueDrops)
	reg.AddUint("ip", "red_drops", ns.REDDrops)
	reg.AddUint("ip", "link_failures", ns.LinkFailures)
	reg.AddUint("tcp", "segs_in", ts.SegsIn)
	reg.AddUint("tcp", "no_socket", ts.NoSocket)
	reg.AddUint("tcp", "rsts_sent", ts.RSTsSent)
	reg.AddUint("tcp", "conns_opened", ts.ConnsOpened)
	reg.AddUint("tcp", "conns_accepted", ts.ConnsAccepted)
	if rc.gw != nil {
		gs, ws := rc.gw.Stats, rc.gw.WAN().Stats
		reg.AddUint("gateway", "accepted", gs.Accepted)
		reg.AddUint("gateway", "posts", gs.Posts)
		reg.AddUint("gateway", "reused", gs.Reused)
		reg.AddUint("gateway", "evicted", gs.Evicted)
		reg.AddUint("gateway", "readings_in", gs.ReadingsIn)
		reg.AddUint("gateway", "readings_out", gs.ReadingsOut)
		reg.AddUint("gateway", "readings_lost", gs.ReadingsLost)
		reg.AddUint("wan", "sent", ws.Sent)
		reg.AddUint("wan", "delivered", ws.Delivered)
		reg.AddUint("wan", "queue_drops", ws.QueueDrops)
		reg.AddUint("wan", "loss_drops", ws.LossDrops)
		reg.AddUint("wan", "bytes_sent", ws.BytesSent)
	}
	return reg
}

// runWindow runs the measurement window. With a metrics interval it runs
// in MetricsInterval slices and snapshots the registry into the NDJSON
// writer as a "metrics" record at the end of each whole one: between
// slices, so the sampler never enters the engine and the run is the one
// a single RunFor would have made.
func (rc *runContext) runWindow() {
	eng := rc.net.Eng
	end := eng.Now().Add(rc.spec.Duration.D())
	if oc := rc.oc; oc != nil && oc.Events != nil && oc.MetricsInterval > 0 {
		for t := eng.Now().Add(oc.MetricsInterval); t <= end; t = t.Add(oc.MetricsInterval) {
			eng.RunUntil(t)
			oc.Events.Metrics(rc.spec.Name, rc.seed, int64(t), rc.layerRegistry().Layers())
		}
	}
	eng.RunUntil(end)
}
