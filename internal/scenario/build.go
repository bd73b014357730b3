package scenario

import (
	"fmt"

	"tcplp/internal/gateway"
	"tcplp/internal/mesh"
	"tcplp/internal/netem"
	"tcplp/internal/obs"
	"tcplp/internal/obs/journey"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/stats"
	"tcplp/internal/tcplp"
	"tcplp/internal/tcplp/cc"
	"tcplp/internal/uip"
)

// build translates TopologySpec into a mesh layout.
func (t TopologySpec) build() mesh.Topology {
	spacing := t.Spacing
	if spacing == 0 {
		spacing = 10
	}
	switch t.Kind {
	case TopoChain:
		return mesh.Chain(t.Nodes, spacing)
	case TopoStar:
		return mesh.Star(t.Nodes, spacing)
	case TopoOffice:
		return mesh.Office()
	case TopoTwinLeaf:
		return mesh.TwinLeaf(t.PathHops, spacing)
	default: // TopoRandomGeometric: ParseSpecs refuses every other kind
		seed := t.Seed
		if seed == 0 {
			seed = 1
		}
		return mesh.RandomGeometric(t.Nodes, t.Density, seed)
	}
}

// options translates NetSpec into stack options.
func (s *Spec) options() stack.Options {
	opt := stack.DefaultOptions()
	n := s.Net
	opt.PER = n.PER
	if n.RetryDelay != nil {
		opt.MAC.RetryDelayMax = n.RetryDelay.D()
	}
	if n.SegFrames > 0 {
		opt.SegFrames = n.SegFrames
	}
	if n.WindowSegs > 0 {
		opt.WindowSegs = n.WindowSegs
	}
	if n.QueueCap > 0 {
		opt.QueueCap = n.QueueCap
	}
	opt.RED = n.RED
	return opt
}

// flowRun is one instantiated flow: its endpoints plus its transport's
// measurement probe.
type flowRun struct {
	spec  FlowSpec
	src   *stack.Node
	dst   *stack.Node
	probe probe
}

// meshNode returns the flow's mesh-side endpoint — the source unless it
// is the wired host (which has no radio).
func (fr *flowRun) meshNode() *stack.Node {
	if fr.src.Radio != nil {
		return fr.src
	}
	return fr.dst
}

// runContext is one fully built (spec, seed) instance.
type runContext struct {
	spec  *Spec // defaults applied
	seed  int64
	net   *stack.Network
	flows []*flowRun
	gw    *gateway.Gateway // nil unless spec.Gateway is set

	framesBase uint64
	lossBase   uint64
	gwBase     gateway.Stats
	wanBase    netem.WANStats
	dcSamples  []float64

	// Observability (nil/zero unless the Runner carries an ObsConfig).
	oc          *ObsConfig
	trace       *obs.Trace
	recorder    *journey.Recorder
	eventFilter *obs.FilterSink
}

// buildRun instantiates the spec onto the stack layers for one seed.
// The spec must be validated and have defaults applied (withDefaults).
func (r *Runner) buildRun(spec *Spec, seed int64) (*runContext, error) {
	oc := r.Obs
	rc := &runContext{spec: spec, seed: seed}
	rc.buildTrace(oc)
	opt := spec.options()
	opt.Trace = rc.trace
	net := stack.New(seed, spec.Topology.build(), opt)
	rc.net = net
	if spec.needsHost() {
		net.AttachHost()
	}
	if spec.Net.InjectedLoss > 0 {
		net.Border().DropFilter = netem.UniformLoss(spec.Net.InjectedLoss, seed+1)
	}
	if spec.Net.Interference > 0 {
		for _, in := range netem.AddOfficeInterference(net, spec.Net.Interference) {
			in.Start()
		}
	}
	sleepy := false // some node sleeps: routes need checking for sleepy relays
	for _, ns := range spec.Nodes {
		if !ns.Sleepy {
			continue
		}
		sleepy = true
		sc, err := net.MakeSleepyLeaf(ns.ID)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: sleepy node %d: %w", spec.Name, ns.ID, err)
		}
		if ns.SleepInterval > 0 {
			sc.SleepInterval = ns.SleepInterval.D()
		}
		if ns.FastInterval != nil {
			sc.FastInterval = ns.FastInterval.D()
		}
		sc.Adaptive = ns.Adaptive
		sc.Start()
	}
	if g := spec.Gateway; g != nil {
		// seed+2: the WAN's loss source must be independent of both the
		// channel (seed) and the border drop filter (seed+1).
		rc.gw = gateway.New(net.Border(), gateway.Config{
			MaxConns: g.MaxConns,
			WAN: netem.WANConfig{
				BandwidthKbps: g.WAN.BandwidthKbps,
				Delay:         g.WAN.RTT.D() / 2,
				Loss:          g.WAN.Loss,
				QueueCap:      g.WAN.QueueCap,
			},
		}, seed+2)
	}
	for _, fs := range spec.Flows {
		for _, end := range []NodeRef{fs.From, fs.To} {
			if end.Host {
				continue
			}
			if err := rc.routed(rc.resolve(end).ID, sleepy); err != nil {
				return nil, err
			}
		}
		fr, err := rc.startFlow(fs)
		if err != nil {
			return nil, err
		}
		rc.flows = append(rc.flows, fr)
	}
	// The -events-flow filter names flows by label; flows only resolve
	// to source nodes here, after startFlow, so the allow-list is
	// populated last (before the engine runs a single event).
	if rc.eventFilter != nil && oc != nil {
		for _, label := range oc.EventFlows {
			for _, fr := range rc.flows {
				if fr.spec.Label == label {
					rc.eventFilter.AllowNode(fr.src.ID)
				}
			}
		}
	}
	return rc, nil
}

// routed returns an error naming flow endpoint id if it has no route to
// the border router, or, when sleepy is set, if a sleepy node relays on
// its route up to the border router or back down: a run whose flows
// cannot reach it measures nothing, and a sleepy node's radio is off
// when its children send. Without sleepy nodes no route is walked.
func (rc *runContext) routed(id int, sleepy bool) error {
	routes, border := rc.net.Routes, rc.net.Border().ID
	if routes.Hops(id, border) < 0 {
		return fmt.Errorf("scenario %q: flow endpoint %d has no route to the border router (node %d)",
			rc.spec.Name, id, border)
	}
	if !sleepy {
		return nil
	}
	for _, leg := range [][2]int{{id, border}, {border, id}} {
		from, to := leg[0], leg[1]
		for hop, _ := routes.NextHop(from, to); hop != to; hop, _ = routes.NextHop(hop, to) {
			if rc.net.Nodes[hop].Sleep != nil {
				return fmt.Errorf("scenario %q: flow endpoint %d routes through sleepy node %d, which relays nothing",
					rc.spec.Name, id, hop)
			}
		}
	}
	return nil
}

// resolve maps a NodeRef to its node. The gateway tier lives on the
// border router.
func (rc *runContext) resolve(r NodeRef) *stack.Node {
	if r.Host {
		return rc.net.Host
	}
	if r.End {
		return rc.net.Nodes[len(rc.net.Nodes)-1]
	}
	if r.Gateway {
		return rc.net.Border()
	}
	return rc.net.Nodes[r.ID]
}

// tcpConfigs derives the flow's sender and sink TCP configurations:
// the per-flow variant over the network's configuration, host-sized
// buffers on host endpoints, and the Table 7 stack-profile override.
func (rc *runContext) tcpConfigs(fs FlowSpec) (srcCfg, sinkCfg tcplp.Config, err error) {
	variant, err := cc.Parse(fs.Variant) // "" is NewReno, the paper's
	if err != nil {
		return srcCfg, sinkCfg, err // unreachable after Validate
	}
	cfg := rc.net.FlowTCPConfig(variant)

	// The host end is unconstrained (§5: a FreeBSD-class machine), so a
	// host endpoint keeps large buffers; the network's window binds at
	// the mote end, which is what bounds the transfer either way.
	sinkCfg = cfg
	if fs.To.Host {
		sinkCfg.SendBufSize = stack.HostBufSize
		sinkCfg.RecvBufSize = stack.HostBufSize
	}
	srcCfg = cfg
	if fs.From.Host {
		srcCfg.SendBufSize = stack.HostBufSize
	}
	if fs.Profile != "" {
		// Table 7 baselines: the sender runs the simplified-stack
		// profile while the sink keeps full TCPlp, whose delayed ACKs
		// penalize stop-and-wait stacks just as real gateway-class
		// receivers did.
		p, perr := uip.ParseProfile(fs.Profile)
		if perr != nil {
			return srcCfg, sinkCfg, perr // unreachable after Validate
		}
		srcCfg = p.Config()
	}
	return srcCfg, sinkCfg, nil
}

// startFlow resolves the flow's endpoints and starts its transport's
// probe. A fourth transport is one more file like flow_udp.go and one
// more case here (and in Validate).
func (rc *runContext) startFlow(fs FlowSpec) (*flowRun, error) {
	fr := &flowRun{spec: fs, src: rc.resolve(fs.From), dst: rc.resolve(fs.To)}
	t := newTelemetry(rc, fr)
	switch fs.Protocol {
	case protoUDP:
		fr.probe = startUDP(t)
	case protoCoAP:
		fr.probe = startCoAP(t)
	default: // protoTCP: ParseSpecs refuses every other protocol
		srcCfg, sinkCfg, err := rc.tcpConfigs(fs)
		if err != nil {
			return nil, err
		}
		fr.probe = startTCP(t, srcCfg, sinkCfg)
	}
	return fr, nil
}

// mark opens the measurement window: probes and counters snapshot their
// baselines and the energy meters reset, so every windowed metric
// covers only the post-warmup schedule.
func (rc *runContext) mark() {
	for _, fr := range rc.flows {
		fr.probe.mark()
	}
	for _, n := range rc.net.Nodes {
		n.Radio.ResetEnergy()
		n.CPU.Reset()
	}
	if rc.net.Host != nil {
		rc.net.Host.CPU.Reset()
	}
	rc.framesBase = rc.net.TotalFramesSent()
	rc.lossBase = rc.net.TotalLossEvents()
	if rc.gw != nil {
		rc.gwBase = rc.gw.Stats
		rc.wanBase = rc.gw.WAN().Stats
		rc.gw.WAN().ResetMaxQueue()
	}
}

// sampleDC is one Fig. 10 duty-cycle sample, taken at every DCSample
// boundary of the measurement window: the mean radio duty cycle across
// the flows' mesh endpoints, whose meters then reset.
func (rc *runContext) sampleDC() {
	dc := 0.0
	cnt := 0
	for _, fr := range rc.flows {
		node := fr.meshNode()
		if node.Radio == nil {
			continue
		}
		dc += node.Radio.DutyCycle()
		node.Radio.ResetEnergy()
		cnt++
	}
	if cnt > 0 {
		rc.dcSamples = append(rc.dcSamples, dc/float64(cnt))
	}
}

// idleSettle is how long the network settles between the flows stopping
// and the idle window's meters resetting.
const idleSettle = 30 * sim.Second

// runIdlePhase appends the Fig. 14 idle measurement: every flow stops
// (window-rate metrics freeze at this instant), the network settles,
// each flow's mesh endpoint resets its radio meter, and the idle window
// runs out. collect picks the duty cycles up afterwards.
func (rc *runContext) runIdlePhase() {
	for _, fr := range rc.flows {
		fr.probe.stop()
	}
	rc.net.Eng.RunFor(idleSettle)
	for _, fr := range rc.flows {
		if node := fr.meshNode(); node.Radio != nil {
			node.Radio.ResetEnergy()
		}
	}
	rc.net.Eng.RunFor(rc.spec.IdleWindow.D())
}

// collect closes the measurement window and computes the run's result.
func (rc *runContext) collect() Result {
	res := Result{
		Name:       rc.spec.Name,
		Seed:       rc.seed,
		FramesSent: rc.net.TotalFramesSent() - rc.framesBase,
		LossEvents: rc.net.TotalLossEvents() - rc.lossBase,
		Events:     rc.net.Eng.Processed(),
		DCSamples:  rc.dcSamples,
	}
	idle := rc.spec.IdleWindow > 0
	// The recorder folded the run's events as they arrived; resolve the
	// journeys once, and each telemetry flow picks up its own attribution
	// below.
	var jrep *journey.Report
	if rc.recorder != nil {
		jrep = rc.recorder.Report()
		if out := rc.oc.JourneyOut; out != nil {
			out.AddRun(rc.spec.Name, rc.seed, jrep)
		}
		if cb := rc.oc.OnJourney; cb != nil {
			cb(rc.spec.Name, rc.seed, jrep)
		}
	}
	var goodputs []float64
	for _, fr := range rc.flows {
		fres := FlowResult{
			Label:    fr.spec.Label,
			Gateway:  fr.spec.To.Gateway,
			Protocol: fr.spec.Protocol,
			Pattern:  fr.spec.Pattern,
		}
		fr.probe.collect(&fres)
		if fr.src.Radio != nil {
			fres.RadioDC = fr.src.Radio.DutyCycle()
		}
		fres.CPUDC = fr.src.CPU.DutyCycle()
		if idle {
			if node := fr.meshNode(); node.Radio != nil {
				fres.IdleRadioDC = node.Radio.DutyCycle()
			}
		}
		if jrep != nil {
			fres.Journey = jrep.Flows[fr.src.ID]
		}
		goodputs = append(goodputs, fres.GoodputKbps)
		res.AggregateKbps += fres.GoodputKbps
		res.Flows = append(res.Flows, fres)
	}
	res.Jain = stats.JainIndex(goodputs)
	if rc.gw != nil {
		res.Gateway = rc.collectGateway(res.Flows)
	}
	res.Layers = rc.layers()
	return res
}

// collectGateway windows the gateway/WAN counters and computes the
// per-source credit shares: each gateway flow's fraction of the cloud
// collector's total credited readings, plus Jain fairness over them.
// The flows slice is indexed in rc.flows order.
func (rc *runContext) collectGateway(frs []FlowResult) *GatewayResult {
	gs, ws := rc.gw.Stats, rc.gw.WAN().Stats
	gr := &GatewayResult{
		Accepted:      gs.Accepted - rc.gwBase.Accepted,
		Reused:        gs.Reused - rc.gwBase.Reused,
		Evicted:       gs.Evicted - rc.gwBase.Evicted,
		ActiveConns:   rc.gw.Active(),
		WANSent:       ws.Sent - rc.wanBase.Sent,
		WANDelivered:  ws.Delivered - rc.wanBase.Delivered,
		WANQueueDrops: ws.QueueDrops - rc.wanBase.QueueDrops,
		WANLossDrops:  ws.LossDrops - rc.wanBase.LossDrops,
		WANQueueDepth: rc.gw.WAN().QueueDepth(),
		WANQueueMax:   ws.MaxQueue,
	}
	var total uint64
	for i := range frs {
		if frs[i].Gateway {
			total += frs[i].E2EDelivered
		}
	}
	var credits []float64
	for i := range frs {
		if !frs[i].Gateway {
			continue
		}
		if total > 0 {
			frs[i].CreditShare = float64(frs[i].E2EDelivered) / float64(total)
		}
		credits = append(credits, float64(frs[i].E2EDelivered))
	}
	gr.CreditJain = stats.JainIndex(credits)
	return gr
}

// runDefaulted runs one seed of a spec that is already validated and
// defaulted — the Runner's worker path, which hoists both steps out of the
// per-seed loop. The run is entirely self-contained — its own engine,
// channel, and stacks — which is what lets the Runner parallelize seeds
// safely.
func (r *Runner) runDefaulted(spec *Spec, seed int64) (Result, error) {
	mc := startManifest(r.Obs)
	rc, err := r.buildRun(spec, seed)
	if err != nil {
		return Result{}, err
	}
	mc.lap("build")
	rc.run()
	mc.lap("run")
	res := rc.collect()
	mc.lap("collect")
	res.Manifest = mc.manifest(rc)
	return res, nil
}

// run drives a built run through warm-up, the measurement window and the
// optional idle phase.
func (rc *runContext) run() {
	rc.net.Eng.RunFor(rc.spec.Warmup.D())
	rc.mark()
	rc.runWindow()
	if rc.spec.IdleWindow > 0 {
		rc.runIdlePhase()
	}
}
