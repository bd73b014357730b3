// Package scenario is the declarative multi-flow experiment subsystem:
// a Spec names a topology, link conditions, per-node duty-cycle roles,
// and per-flow transport configuration (protocol, congestion-control
// variant, application pattern); a Runner instantiates every
// (spec, seed) pair onto the sim/phy/mac/stack layers, fans the runs
// out across a worker pool — each seed's engine is independent, so
// parallelism is deterministic — and reports each run's per-flow goodput,
// retransmissions, RTT, energy duty cycle, and Jain's fairness index.
//
// Specs are JSON-serializable, so a sweep is data, not a bespoke
// driver: cmd/tcplp-bench's -scenario mode runs a spec file, every
// experiment of the paper's evaluation is one such file
// (examples/scenarios/paper), and the command line's -scale, -seeds,
// -variant, -window, -warmup and -duration are one Rewrite of the specs,
// applied before they run.
//
// # Flow probes
//
// A flow runs over tcp, udp or coap (FlowSpec.Protocol), and each has a
// probe (flow_tcp.go, flow_udp.go, flow_coap.go) started from the
// validated, defaulted FlowSpec and writing straight into the flow's
// FlowResult. The contract is three calls: mark opens the measurement
// window, stop (idle-phase specs only) freezes the window-rate metrics
// and ends the workload, collect fills the result. What the transports
// have in common — the anemometer, its collector-side sink, per-reading
// credit and latency, gateway end-to-end credit, the marks — is one
// telemetry value (flow.go) the three probes embed.
//
// Construction order is part of determinism: a probe installs its
// collector or sink first, then its transport, then the sensor, then
// starts it. Each step may take engine sequence numbers or RNG draws
// (a listener, a connection's initial sequence number, the first
// sample timer), so reordering them changes every Result.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"tcplp/internal/sim"
)

// Duration is a sim.Duration that marshals as a Go duration string
// ("90s", "250ms"); bare JSON numbers are read as seconds.
type Duration sim.Duration

// D returns the underlying simulation duration.
func (d Duration) D() sim.Duration { return sim.Duration(d) }

// MarshalJSON renders the duration as a string like "1.5s".
func (d Duration) MarshalJSON() ([]byte, error) {
	td := time.Duration(int64(d) * int64(time.Microsecond))
	return json.Marshal(td.String())
}

// String renders the duration in Go syntax ("40ms", "1.5s").
func (d Duration) String() string {
	return (time.Duration(int64(d)) * time.Microsecond).String()
}

// UnmarshalJSON accepts "90s"/"250ms" strings or numbers (seconds).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		td, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %v", s, err)
		}
		*d = Duration(td / time.Microsecond)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"90s\" or a number of seconds: %s", b)
	}
	*d = Duration(secs * float64(sim.Second))
	return nil
}

// NodeRef names a flow endpoint: a mesh node id, the wired cloud host
// behind the border router, "end" — the topology's last node, which
// lets one sweep spec keep addressing the far end of a chain while a
// hop-count axis regrows it — or "gateway", the spec's border-router
// gateway tier (flow sinks only).
type NodeRef struct {
	Host    bool
	End     bool
	Gateway bool
	ID      int
}

// NodeID returns a reference to mesh node id.
func NodeID(id int) NodeRef { return NodeRef{ID: id} }

func (r NodeRef) String() string {
	if r.Host {
		return "host"
	}
	if r.End {
		return "end"
	}
	if r.Gateway {
		return "gateway"
	}
	return strconv.Itoa(r.ID)
}

// MarshalJSON renders the reference as a number, "host", "end", or
// "gateway".
func (r NodeRef) MarshalJSON() ([]byte, error) {
	if r.Host || r.End || r.Gateway {
		return json.Marshal(r.String())
	}
	return json.Marshal(r.ID)
}

// UnmarshalJSON accepts a node id or the strings "host" / "end" /
// "gateway".
func (r *NodeRef) UnmarshalJSON(b []byte) error {
	var id int
	if err := json.Unmarshal(b, &id); err == nil {
		*r = NodeRef{ID: id}
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		switch s {
		case "host":
			*r = NodeRef{Host: true}
			return nil
		case "end":
			*r = NodeRef{End: true}
			return nil
		case "gateway":
			*r = NodeRef{Gateway: true}
			return nil
		}
	}
	return fmt.Errorf("scenario: node reference must be a node id, \"host\", \"end\", or \"gateway\": %s", b)
}

// Topology kinds.
const (
	TopoChain    = "chain"    // n nodes on a line, hidden-terminal ranges (§7.1)
	TopoStar     = "star"     // n-1 nodes around the border router
	TopoOffice   = "office"   // the 15-node Fig. 3 office testbed stand-in
	TopoTwinLeaf = "twinleaf" // Table 9: a relay path ending in two leaves
	// TopoRandomGeometric scatters nodes uniformly in a square sized for a
	// target mean degree, the border router at the center — the city-scale
	// generator (guaranteed connected, deterministic in its seed).
	TopoRandomGeometric = "random_geometric"
)

// TopologySpec selects and parameterizes the mesh layout.
type TopologySpec struct {
	// Kind is one of chain, star, office, twinleaf, random_geometric.
	Kind string `json:"kind"`
	// Nodes is the node count for chain/star/random_geometric (ignored
	// otherwise).
	Nodes int `json:"nodes,omitempty"`
	// PathHops is the twinleaf relay-path length in hops.
	PathHops int `json:"path_hops,omitempty"`
	// Spacing is the inter-node distance (default 10); random_geometric
	// instead derives its field size from Density.
	Spacing float64 `json:"spacing,omitempty"`
	// Density is the random_geometric target mean node degree (default 6).
	Density float64 `json:"density,omitempty"`
	// Seed fixes the random_geometric placement (default 1). It is
	// deliberately separate from the channel seed list: every seed of a
	// run explores the same city.
	Seed int64 `json:"seed,omitempty"`
}

// NetSpec sets network-wide knobs: link conditions, segment sizing, the
// window, queueing, and Appendix A's RED/ECN relays.
type NetSpec struct {
	// PER is a uniform per-frame corruption probability on every link.
	PER float64 `json:"per,omitempty"`
	// RetryDelay overrides the paper's link-retry delay d (§7.1);
	// unset keeps the 40 ms default, "0s" disables it (hidden-terminal
	// conditions).
	RetryDelay *Duration `json:"retry_delay,omitempty"`
	// SegFrames is the TCP MSS in 802.15.4 frames (default 5).
	SegFrames int `json:"seg_frames,omitempty"`
	// WindowSegs is every TCP flow's window in segments (default 4),
	// applied to both the sender's buffers and the sink's advertised
	// window.
	WindowSegs int `json:"window_segs,omitempty"`
	// QueueCap bounds each node's datagram transmit queue.
	QueueCap int `json:"queue_cap,omitempty"`
	// RED runs Appendix A's relays: random early detection that marks
	// ECN-capable packets (TCP sets ECT) over whole-packet relaying, which
	// RED needs to see packets at all.
	RED bool `json:"red,omitempty"`
	// InjectedLoss drops packets crossing the border router with this
	// probability — the §9.4 loss-injection mechanism.
	InjectedLoss float64 `json:"injected_loss,omitempty"`
	// Interference places the §9.5 diurnal interferers with this peak
	// relative activity (0 disables them; the paper uses 1).
	Interference float64 `json:"interference,omitempty"`
}

// NodeSpec assigns a duty-cycle role to one mesh node.
type NodeSpec struct {
	ID int `json:"id"`
	// Sleepy converts the node into a duty-cycled leaf polling its
	// parent (§3.2 / §9.2).
	Sleepy bool `json:"sleepy,omitempty"`
	// SleepInterval is the base data-request period (default 4 min).
	SleepInterval Duration `json:"sleep_interval,omitempty"`
	// FastInterval is the poll period while a transport response is
	// expected (the §9.2 hint); unset keeps the 100 ms default, "0s"
	// turns the hint off (Appendix C conditions).
	FastInterval *Duration `json:"fast_interval,omitempty"`
	// Adaptive enables the Trickle-controlled interval of Appendix C,
	// between the paper's 20 ms and 5 s bounds.
	Adaptive bool `json:"adaptive,omitempty"`
}

// WANSpec shapes the gateway's modeled wide-area backhaul: a
// netem-style link with configurable bandwidth, round-trip latency,
// and random message loss.
type WANSpec struct {
	// BandwidthKbps serializes forwarded messages at this rate; 0 is an
	// unconstrained link.
	BandwidthKbps float64 `json:"bandwidth_kbps,omitempty"`
	// RTT is the WAN round-trip time; each forwarded message crosses
	// half of it one-way.
	RTT Duration `json:"rtt,omitempty"`
	// Loss drops each forwarded message with this probability.
	Loss float64 `json:"loss,omitempty"`
	// QueueCap bounds messages queued at the gateway's uplink (default
	// 64); arrivals beyond it are tail-dropped.
	QueueCap int `json:"queue_cap,omitempty"`
}

// GatewaySpec installs the border-router gateway tier: flows addressed
// "to": "gateway" terminate at the border router's shared per-device
// connection table (TCP port 7000, CoAP port 5683) and are proxied onto
// the WAN, with deliveries credited per source at a cloud collector —
// upstream fairness becomes measurable end-to-end (device → gateway →
// cloud).
type GatewaySpec struct {
	// MaxConns bounds the per-device connection table; 0 is unbounded. A
	// full table evicts its least-recently-active device.
	MaxConns int `json:"max_conns,omitempty"`
	// WAN shapes the backhaul link.
	WAN WANSpec `json:"wan,omitempty"`
}

// Traffic patterns.
const (
	PatternBulk       = "bulk"       // saturating stream (default, TCP only)
	PatternAnemometer = "anemometer" // §3 sensor: periodic readings, optional batching
)

// FlowSpec is one flow: endpoints, the transport protocol, its
// configuration, and the application traffic pattern driving it.
type FlowSpec struct {
	// Label names the flow in results (default "from->to").
	Label string  `json:"label,omitempty"`
	From  NodeRef `json:"from"`
	To    NodeRef `json:"to"`
	// Protocol selects the transport: tcp (default), udp, or
	// coap. Non-TCP flows carry the anemometer pattern (telemetry);
	// bulk streams need TCP's reliability.
	Protocol string `json:"protocol,omitempty"`
	// Confirmable selects CoAP CON (default) vs NON exchanges; only
	// meaningful for protocol "coap".
	Confirmable *bool `json:"confirmable,omitempty"`
	// RTO selects the CoAP retransmission-timeout policy: "default"
	// (RFC 7252) or "cocoa" (draft-ietf-core-cocoa, the §9.4 baseline).
	RTO string `json:"rto,omitempty"`
	// Variant is the congestion-control algorithm (newreno, cubic,
	// westwood, bbr, vegas); empty uses the process default.
	Variant string `json:"variant,omitempty"`
	// Profile runs the sender under a named simplified-stack profile
	// (uip, blip, uip50, archrock — Table 7's baselines): the source
	// connection uses the profile's stripped configuration while the
	// sink stays full TCPlp, whose delayed ACKs penalize stop-and-wait
	// stacks exactly as the paper's gateway-class receivers did. A
	// profile overrides the variant and the network window for the flow.
	Profile string `json:"profile,omitempty"`
	// Trace records the sender's congestion-window trajectory over the
	// measurement window into FlowResult.CwndTrace (Fig. 7a).
	Trace bool `json:"trace,omitempty"`
	// Pattern is bulk (default for direct TCP flows) or anemometer.
	Pattern string `json:"pattern,omitempty"`
	// Interval is the anemometer sampling period; 0 selects the 1s
	// default (a zero sampling period is meaningless).
	Interval Duration `json:"interval,omitempty"`
	// Batch is the anemometer batching threshold in readings (0 sends
	// each reading immediately).
	Batch int `json:"batch,omitempty"`
	// PerDevice replicates this flow template across every mesh node
	// 1..N-1 (one flow per device, From set per replica) — the idiom for
	// gateway capacity sweeps, where a devices axis regrows the fleet.
	// Requires "to": "gateway"; From in the template is ignored.
	PerDevice bool `json:"per_device,omitempty"`
	// Stride thins a per_device template to every stride-th device
	// (ids 1, 1+stride, 1+2·stride, …) — the city-scale idiom, where a
	// thousand-node mesh carries a hundred instrumented flows rather than
	// one per node. 0 or 1 keeps every device.
	Stride int `json:"stride,omitempty"`

	// port is a direct flow's sink port: 80 + the flow's index among the
	// flows a run starts, per_device replicas included (eachStartedFlow).
	port uint16
}

// Spec is one declarative scenario: a topology, link conditions, node
// roles, flows, a measurement schedule, and the seeds to run. A spec
// with a Sweep block is a whole grid of scenarios in one object.
type Spec struct {
	Name     string       `json:"name"`
	Topology TopologySpec `json:"topology"`
	Net      NetSpec      `json:"net,omitempty"`
	Nodes    []NodeSpec   `json:"nodes,omitempty"`
	// AllNodes is a role template applied to every mesh node 1..N-1
	// without an explicit Nodes entry (its ID field is ignored) — the
	// idiom for specs whose node count is swept, where a fixed Nodes
	// list cannot follow the topology.
	AllNodes *NodeSpec  `json:"all_nodes,omitempty"`
	Flows    []FlowSpec `json:"flows"`
	// Gateway installs the border-router gateway tier; flows addressed
	// "to": "gateway" terminate there and proxy onto its WAN.
	Gateway *GatewaySpec `json:"gateway,omitempty"`
	// Sweep expands this spec into a cartesian grid of cells; the
	// Runner runs every cell (see Expand).
	Sweep *Sweep `json:"sweep,omitempty"`
	// Point is set on expanded cells: the sweep coordinates this cell
	// was instantiated at, in axis order.
	Point []AxisValue `json:"point,omitempty"`
	// Warmup runs before the measurement window opens; 0 (or omitted)
	// measures from t=0.
	Warmup Duration `json:"warmup,omitempty"`
	// Duration is the measurement window; 0 selects the 60s default (a
	// zero-length window is meaningless).
	Duration Duration `json:"duration,omitempty"`
	// DCSample, when set, samples the mean radio duty cycle across the
	// flow source nodes every DCSample of the measurement window
	// (resetting their meters each time) into Result.DCSamples — the
	// Fig. 10 hourly-duty-cycle instrument.
	DCSample Duration `json:"dc_sample,omitempty"`
	// IdleWindow, when set, appends an idle phase after the measurement
	// window: every flow stops, the network settles for 30 s (idleSettle),
	// each flow's mesh endpoint resets its radio meter, and after
	// IdleWindow its duty cycle lands in FlowResult.IdleRadioDC — the
	// Fig. 14 idle-cost instrument.
	IdleWindow Duration `json:"idle_window,omitempty"`
	// Seeds lists the independent channel realizations to run
	// (default [1]).
	Seeds []int64 `json:"seeds,omitempty"`
}

// defaultDuration is the measurement window of a spec that names none.
const defaultDuration = Duration(60 * sim.Second)

// ParseSpecs decodes a JSON spec file holding either one spec object or
// an array of specs, and validates each, a sweep spec cell by cell. It is
// where a spec is checked: Rewrite.Apply checks only what a rewrite sets,
// and the Runner and the build check nothing. Unknown keys are an error,
// not a silent no-op. The form is decided by the first byte so a decode
// error inside an array surfaces as itself, not as a misleading
// object-decode failure.
func ParseSpecs(data []byte) ([]*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var many []*Spec
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := decodeStrict(data, &many); err != nil {
			return nil, fmt.Errorf("scenario: bad spec array: %v", err)
		}
	} else {
		var one Spec
		if err := decodeStrict(data, &one); err != nil {
			return nil, fmt.Errorf("scenario: bad spec: %v", err)
		}
		many = []*Spec{&one}
	}
	for _, s := range many {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return many, nil
}

// decodeStrict is json.Unmarshal that rejects keys no spec field claims,
// so a misspelled or removed knob is an error naming the key instead of
// a silently ignored setting.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the top-level value")
	}
	return nil
}

// eachStartedFlow calls fn with every flow a run starts, in start order:
// each per_device template replicated across its devices (From set, the
// template fields cleared, replica true) and every direct flow's sink port
// set to 80 + its index in that order. Validate's port check and
// withDefaults both walk it, so a port one clears is the port the other
// assigns. A port past the last one is an error, not a wrapped port. The
// walk stops at the first error.
func (s *Spec) eachStartedFlow(fn func(i int, f FlowSpec, replica bool) error) error {
	n, i := s.Topology.nodeCount(), 0
	start := func(f FlowSpec, replica bool) error {
		if !f.To.Gateway {
			// Gateway flows keep port 0: they share the gateway's
			// terminator ports instead of a private sink.
			if 80+i > math.MaxUint16 {
				return fmt.Errorf("scenario %q: started flow %d (%s->%s) would listen on port 80 + %d, past the last port, %d",
					s.Name, i, f.From, f.To, i, math.MaxUint16)
			}
			f.port = uint16(80 + i)
		}
		i++
		return fn(i-1, f, replica)
	}
	for _, f := range s.Flows {
		if !f.PerDevice {
			if err := start(f, false); err != nil {
				return err
			}
			continue
		}
		for id := 1; id < n; id += max(f.Stride, 1) {
			r := f
			r.PerDevice, r.Stride, r.From = false, 0, NodeID(id)
			if err := start(r, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// withDefaults returns a copy of the spec with defaults applied:
// measurement schedule, seeds, flow labels and sink ports. A zero warmup is
// honored (measure from t=0); zero values are only replaced where zero
// is meaningless (duration, interval).
func (s *Spec) withDefaults() *Spec {
	out := *s
	if out.Duration == 0 {
		out.Duration = defaultDuration
	}
	if len(out.Seeds) == 0 {
		out.Seeds = []int64{1}
	}
	// Materialize the all_nodes role template for every mesh node
	// without an explicit entry (in id order, deterministically).
	out.Nodes = append([]NodeSpec(nil), s.Nodes...)
	if s.AllNodes != nil {
		have := map[int]bool{}
		for _, ns := range out.Nodes {
			have[ns.ID] = true
		}
		for id := 1; id < out.Topology.nodeCount(); id++ {
			if have[id] {
				continue
			}
			ns := *s.AllNodes
			ns.ID = id
			out.Nodes = append(out.Nodes, ns)
		}
		out.AllNodes = nil
	}
	// Each per_device replica gets its own label.
	out.Flows = make([]FlowSpec, 0, len(s.Flows))
	s.eachStartedFlow(func(_ int, f FlowSpec, replica bool) error {
		if replica && f.Label != "" {
			f.Label = fmt.Sprintf("%s-%d", f.Label, f.From.ID)
		}
		if f.Label == "" {
			f.Label = fmt.Sprintf("%s->%s", f.From, f.To)
		}
		if f.Protocol == "" {
			f.Protocol = protoTCP
		}
		if f.Pattern == "" {
			// Non-TCP protocols and gateway flows carry telemetry; direct
			// TCP defaults to a saturating stream.
			if f.To.Gateway || f.Protocol != protoTCP {
				f.Pattern = PatternAnemometer
			} else {
				f.Pattern = PatternBulk
			}
		}
		if f.Pattern == PatternAnemometer && f.Interval == 0 {
			f.Interval = Duration(sim.Second)
		}
		out.Flows = append(out.Flows, f)
		return nil
	})
	return &out
}

// needsHost reports whether the wired cloud host must be attached: a
// flow names it.
func (s *Spec) needsHost() bool {
	for _, f := range s.Flows {
		if f.From.Host || f.To.Host {
			return true
		}
	}
	return false
}
