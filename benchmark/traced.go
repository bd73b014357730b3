package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"

	"tcplp/internal/mesh"
	"tcplp/internal/scenario"
	"tcplp/internal/stack"
)

// cpuLayers are the layers whose CPU-profile share is a metric; "runtime"
// collects every sample with no tcplp/internal frame (collector,
// scheduler).
var cpuLayers = []string{
	"sim", "phy", "mac", "sixlowpan", "mesh", "stack", "tcplp", "gateway", "obs", "obs.journey", "runtime",
}

// profileSeconds is how much repetition wall time one CPU profile
// covers, so that even the shortest workload clears minProfileSamples.
const profileSeconds = 3.0

// traced is the -trace 1 run. After a discarded warm-up it runs one
// plain repetition (the reference for counts, digests and overhead),
// one journey-traced repetition, repetitions under the CPU profiler, one
// repetition at Workers = nproc, and the layer kernels. Every
// repetition must reproduce the first one's Result digests.
func (h *harness) traced() ([]metric, []string, error) {
	full, err := h.w.generate(h.opt.seed, fullWindow, h.opt.smoke)
	if err != nil {
		return nil, nil, err
	}
	if h.counted("warmup", full, nil, 1) == nil {
		return nil, nil, fmt.Errorf("warm-up repetition failed: %s", h.firstFailure)
	}
	plain := h.counted("untraced", full, nil, 1)
	withJourney, js := h.tracedRep("traced", full)
	if plain == nil || withJourney == nil {
		return nil, nil, fmt.Errorf("repetition failed: %s", h.firstFailure)
	}

	var ms []metric
	var notes []string
	add := func(name, unit, base string, v float64) { ms = append(ms, exact(name, unit, base, v)) }

	// C: deterministic counts, summed over the repetition's runs.
	c := countLayers(plain.runs)
	for _, name := range countNames {
		add(name, "count", "sim", c[name])
	}
	events := c["sim.events"]
	add("sim.wall_ns_per_event", "ns", "host", plain.wall*1e9/events)
	add("mac.retry_ratio", "ratio", "sim", safeDiv(c["mac.retries"], c["mac.data_sent"]))
	add("tcplp.useful_byte_ratio", "ratio", "sim", usefulByteRatio(plain.runs))
	add("model.ceiling_fraction", "ratio", "sim", bestCeilingFraction(plain.runs))

	// J: mean journey stage over the traced repetition's delivered readings.
	delivered := float64(js.latencyMs.N())
	stage := func(name string, total float64) { add(name, "ms", "sim", safeDiv(total, delivered)) }
	stage("app.queue_ms", js.stages.AppQueue.Milliseconds())
	stage("tcplp.send_wait_ms", js.stages.SendWait.Milliseconds())
	stage("tcplp.rtx_stall_ms", js.stages.RtxStall.Milliseconds())
	stage("mac.backoff_ms", js.stages.Backoff.Milliseconds())
	stage("mac.retry_ms", js.stages.Retry.Milliseconds())
	stage("mesh.forward_ms", js.stages.Forward.Milliseconds())
	stage("gateway.stage_ms", js.stages.Gateway.Milliseconds())
	stage("netem.wan_ms", js.stages.WAN.Milliseconds())
	add("obs.journey.readings", "count", "sim", float64(js.readings))
	add("obs.journey.violations", "count", "sim", float64(js.violations))
	add("obs.trace_overhead_ratio", "ratio", "host", withJourney.wall/plain.wall)
	notes = append(notes, js.note())

	// P: CPU-profile shares of the workload's own kind of repetition.
	shares, samples, err := h.profile(full)
	if err != nil {
		notes = append(notes, "cpu shares not reported: "+err.Error())
	}
	for _, l := range cpuLayers {
		add(l+".cpu_share", "ratio", "host", shares[l])
	}
	add("profile.samples", "count", "host", float64(samples))

	// One repetition spread over every CPU: what the seed-sharded runner buys.
	if par := h.counted("parallel", full, nil, runtime.NumCPU()); par != nil {
		add("scenario.runner_speedup", "ratio", "host", plain.wall/par.wall)
	} else {
		add("scenario.runner_speedup", "ratio", "host", 0)
	}

	if err := h.kernels(full, add); err != nil {
		return nil, nil, err
	}
	return ms, notes, nil
}

// profile runs repetitions under runtime/pprof until they cover
// profileSeconds of wall time and attributes the samples to layers. The
// repetitions are of the workload's own kind: traced on a traced
// workload, untraced elsewhere.
func (h *harness) profile(spec []byte) (map[string]float64, int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	var reps []*repetition
	var oc *scenario.ObsConfig
	if h.w.Traced {
		oc = &scenario.ObsConfig{Journey: true}
	}
	var err error
	for covered := 0.0; covered < profileSeconds; {
		var r *repetition
		if r, err = h.rep("profiled", spec, oc, 1); err != nil {
			break
		}
		reps = append(reps, r)
		covered += r.wall
		if h.opt.smoke {
			break
		}
	}
	pprof.StopCPUProfile()
	if err != nil {
		h.attempted++
		h.fail("profiled repetition: %v", err)
		return nil, 0, err
	}
	for _, r := range reps {
		h.verify("profiled", r)
	}
	return layerShares(buf.Bytes())
}

// countNames are the C metrics, in output order: deterministic counts
// read from Result, Result.Layers, GatewayResult and FlowResult.
var countNames = []string{
	"sim.events",
	"phy.frames_sent", "phy.frames_recv", "phy.rx_dropped",
	"mac.data_sent", "mac.retries", "mac.csma_failures", "mac.data_dropped",
	"sixlowpan.reassembly_timeouts",
	"stack.packets_sent", "stack.packets_delivered", "stack.queue_drops", "stack.link_failures",
	"tcplp.segs_in", "tcplp.retransmits", "tcplp.timeouts", "tcplp.fast_rtx", "tcplp.conns_opened",
	"coap.retransmits", "coap.giveups",
	"app.generated", "app.delivered", "app.backlog",
	"gateway.accepted", "gateway.reused", "gateway.evicted", "gateway.readings_in", "gateway.readings_out",
	"netem.wan_sent", "netem.wan_queue_drops", "netem.wan_loss_drops", "netem.wan_queue_max",
}

// registryNames maps a C metric to its (layer, name) in Result.Layers,
// whose layer names predate the package names the metrics use.
var registryNames = map[string][2]string{
	"phy.frames_sent":               {"phy", "frames_sent"},
	"phy.frames_recv":               {"phy", "frames_recv"},
	"phy.rx_dropped":                {"phy", "rx_dropped"},
	"mac.data_sent":                 {"mac", "data_sent"},
	"mac.retries":                   {"mac", "retries"},
	"mac.csma_failures":             {"mac", "csma_failures"},
	"mac.data_dropped":              {"mac", "data_dropped"},
	"sixlowpan.reassembly_timeouts": {"sixlowpan", "reassembly_timeouts"},
	"stack.packets_sent":            {"ip", "packets_sent"},
	"stack.packets_delivered":       {"ip", "packets_delivered"},
	"stack.queue_drops":             {"ip", "queue_drops"},
	"stack.link_failures":           {"ip", "link_failures"},
	"tcplp.segs_in":                 {"tcp", "segs_in"},
	"tcplp.conns_opened":            {"tcp", "conns_opened"},
	"gateway.accepted":              {"gateway", "accepted"},
	"gateway.reused":                {"gateway", "reused"},
	"gateway.evicted":               {"gateway", "evicted"},
	"gateway.readings_in":           {"gateway", "readings_in"},
	"gateway.readings_out":          {"gateway", "readings_out"},
	"netem.wan_sent":                {"wan", "sent"},
	"netem.wan_queue_drops":         {"wan", "queue_drops"},
	"netem.wan_loss_drops":          {"wan", "loss_drops"},
}

// countLayers sums the C metrics over one repetition's runs.
func countLayers(runs []*scenario.Result) map[string]float64 {
	c := map[string]float64{}
	for _, run := range runs {
		c["sim.events"] += float64(run.Events)
		for name, at := range registryNames {
			c[name] += run.Layers[at[0]][at[1]]
		}
		if g := run.Gateway; g != nil && float64(g.WANQueueMax) > c["netem.wan_queue_max"] {
			c["netem.wan_queue_max"] = float64(g.WANQueueMax)
		}
		for i := range run.Flows {
			f := &run.Flows[i]
			if f.Protocol == "coap" {
				c["coap.retransmits"] += float64(f.Retransmits)
				c["coap.giveups"] += float64(f.Timeouts)
			} else {
				c["tcplp.retransmits"] += float64(f.Retransmits)
				c["tcplp.timeouts"] += float64(f.Timeouts)
				c["tcplp.fast_rtx"] += float64(f.FastRtx)
			}
			c["app.generated"] += float64(f.Generated)
			c["app.delivered"] += float64(f.Delivered)
			c["app.backlog"] += float64(f.Backlog)
		}
	}
	return c
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// usefulByteRatio is payload delivered over payload sent (retransmissions
// included) across the TCP flows: the share of TCP's work that was useful.
func usefulByteRatio(runs []*scenario.Result) float64 {
	var got, sent float64
	for _, run := range runs {
		for i := range run.Flows {
			if f := &run.Flows[i]; f.Protocol == "tcp" {
				got += float64(f.Bytes)
				sent += float64(f.SentBytes)
			}
		}
	}
	return safeDiv(got, sent)
}

func bestCeilingFraction(runs []*scenario.Result) float64 {
	best := 0.0
	for _, run := range runs {
		if f := ceilingFraction(run); f > best {
			best = f
		}
	}
	return best
}

// kernels runs the K metrics: each layer's entry points timed from
// outside, the mesh and stack ones on the workload's own topology.
func (h *harness) kernels(spec []byte, add func(name, unit, base string, v float64)) error {
	end := h.spans.begin("kernels")
	defer end()
	seed := h.opt.seed
	ns := func(name string, op func() int) { v, _ := h.kernel(name, op); add(name, "ns", "host", v) }

	v, allocs := h.kernel("sim.schedule_fire_ns", simScheduleFire(seed))
	add("sim.schedule_fire_ns", "ns", "host", v)
	add("sim.schedule_fire_allocs", "count", "host", allocs)
	ns("phy.frame_codec_ns", phyFrameCodec())
	ns("sixlowpan.frag_reasm_ns", sixlowpanFragReasm(seed))
	ns("sixlowpan.iphc_ns", sixlowpanIPHC())
	ns("ip6.codec_ns", ip6Codec())
	ns("tcplp.segment_codec_ns", tcplpSegmentCodec())
	loopBytes := 1 << 20
	if h.opt.smoke {
		loopBytes = 64 << 10
	}
	ns("tcplp.loopback_ns_per_seg", tcplpLoopback(seed, loopBytes))
	ns("coap.codec_ns", coapCodec())
	ns("netem.wan_send_ns", netemWANSend(seed))
	ns("scenario.parse_expand_ns", scenarioParseExpand(spec))

	// The workload's own topology: the last cell's, which is the largest
	// in every workload file.
	specs, err := scenario.ParseSpecs(spec)
	if err != nil {
		return err
	}
	cells := specs[len(specs)-1].Expand()
	cell := cells[len(cells)-1]
	var topo mesh.Topology
	seconds := func(name string, op func() int) { v, _ := h.kernel(name, op); add(name, "s", "host", v/1e9) }
	seconds("mesh.topology_build_s", func() int {
		if topo, err = buildTopology(cell.Topology); err != nil {
			panic(err)
		}
		return 1
	})
	var adj [][]int
	seconds("mesh.adjacency_s", func() int { adj = topo.Adjacency(); return 1 })
	sources := flowSources(cell, topo.N())
	seconds("mesh.routes_s", func() int { sink = walkRoutes(adj, sources); return 1 })
	add("mesh.routes_heap_mb", "MB", "host",
		liveHeapGrowth(func() any { return walkRoutes(adj, sources) })/(1<<20))
	seconds("stack.build_s", func() int { sink = stack.New(seed, topo, stack.DefaultOptions()); return 1 })
	sink = nil

	// The metro-sized network, whatever the workload: fan-out cost and
	// idle per-node footprint only show at this size.
	nodes := metroNodes
	if h.opt.smoke {
		nodes = smokeNodes
	}
	endBuild := h.spans.begin("mesh.topology_build")
	metro := mesh.RandomGeometric(nodes, metroDensity, seed)
	endBuild()
	ns("phy.tx_fanout_ns", phyTxFanout(seed, metro))
	endBuild = h.spans.begin("stack.build")
	perNode := liveHeapGrowth(func() any { return stack.New(seed, metro, stack.DefaultOptions()) }) / float64(nodes)
	endBuild()
	add("stack.heap_bytes_per_node", "B", "host", perNode)
	return nil
}
