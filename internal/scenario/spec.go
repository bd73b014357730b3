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
	"strings"
	"time"

	"tcplp/internal/gateway"
	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp/cc"
	"tcplp/internal/uip"
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

// AxisValue is one coordinate of an expanded sweep cell, e.g.
// {Axis: "d", Value: "40ms"}.
type AxisValue struct {
	Axis  string `json:"axis"`
	Value string `json:"value"`
}

// Sweep expands one spec into a cartesian grid of cells, one run set
// per combination of axis values — the sweep is data, not a bespoke
// driver loop. Axes are applied in field order with the last-listed
// axis varying fastest; each expanded cell records its coordinates in
// Spec.Point and appends them to its name.
type Sweep struct {
	// Hops regrows a chain per cell to hops+1 nodes. Use the "end" node
	// reference in flows so endpoints follow the far end of the chain.
	Hops []int `json:"hops,omitempty"`
	// Devices sweeps the mesh device count: a star or chain gets
	// devices+1 nodes per cell (the border router plus that many
	// devices). Pair it with a per_device flow template so the flow set
	// regrows with the fleet.
	Devices []int `json:"devices,omitempty"`
	// Nodes sweeps the random_geometric node count directly — the
	// city-scale axis. Chain and star fleets use hops/devices instead.
	Nodes []int `json:"nodes,omitempty"`
	// PER sweeps the uniform per-frame corruption probability.
	PER []float64 `json:"per,omitempty"`
	// InjectedLoss sweeps the border-router drop probability — the §9.4
	// loss-injection axis.
	InjectedLoss []float64 `json:"injected_loss,omitempty"`
	// Interference sweeps the §9.5 office-interferer peak activity level
	// (0 disables the interferers for that cell).
	Interference []float64 `json:"interference,omitempty"`
	// RetryDelay sweeps the §7.1 link-retry delay d ("0s" gives
	// hidden-terminal conditions).
	RetryDelay []Duration `json:"retry_delay,omitempty"`
	// SegFrames sweeps the TCP MSS in 802.15.4 frames (Fig. 4).
	SegFrames []int `json:"seg_frames,omitempty"`
	// WindowSegs sweeps the network window in segments (Fig. 5).
	WindowSegs []int `json:"window_segs,omitempty"`
	// Variants sweeps the congestion-control algorithm, overriding every
	// flow's variant per cell.
	Variants []string `json:"variants,omitempty"`
	// Protocols sweeps the transport preset across every flow: tcp, udp,
	// coap (CON), coap-non (NON), or cocoa (CON with the CoCoA RTO
	// policy). Each cell rewrites every flow's protocol/confirmable/rto
	// and clears knobs foreign to the preset's transport, so one
	// telemetry spec compares transports without per-protocol copies.
	Protocols []string `json:"protocols,omitempty"`
	// SeedStep offsets every seed of cell i by i·SeedStep, reproducing
	// per-condition seeding; 0 (the default) holds the channel
	// realization fixed across cells so rows differ only by the axis.
	SeedStep int64 `json:"seed_step,omitempty"`
}

// empty reports whether no axis has any values.
func (sw *Sweep) empty() bool { return len(sw.axes()) == 0 }

// protoPreset resolves one protocols-axis value to the flow fields it
// rewrites.
func protoPreset(name string) (protocol string, confirmable *bool, rto string, ok bool) {
	t, f := true, false
	switch name {
	case "tcp":
		return protoTCP, nil, "", true
	case "udp":
		return protoUDP, nil, "", true
	case "coap":
		return protoCoAP, &t, "", true
	case "coap-non":
		return protoCoAP, &f, "", true
	case "cocoa":
		return protoCoAP, &t, "cocoa", true
	}
	return "", nil, "", false
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
// an array of specs, and validates each. Unknown keys are an error, not
// a silent no-op. The form is decided by the first byte so a decode
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

// sweepOpt is one axis value prepared for expansion: its printable
// coordinate plus the mutation it applies to a cell.
type sweepOpt struct {
	av    AxisValue
	apply func(*Spec)
}

// sweepAxis defines one sweep dimension, once: the coordinate key cells
// name it by, its values as expansion options, and the check a value
// must pass on the spec that sweeps it — only where an expanded cell's
// Validate cannot make it: the topology kind an axis regrows, or a value
// the cell would read as unset.
type sweepAxis struct {
	opts  func(*Sweep) []sweepOpt
	check func(*Spec) error
}

// axisOf builds an axis over the Sweep field vals reads. check, if any,
// sees the sweep spec (for the topology an axis needs) and one value.
func axisOf[T any](key string, vals func(*Sweep) []T, label func(T) string,
	apply func(*Spec, T), check func(*Spec, T) error) sweepAxis {
	return sweepAxis{
		opts: func(sw *Sweep) []sweepOpt {
			vs := vals(sw)
			out := make([]sweepOpt, 0, len(vs))
			for _, v := range vs {
				v := v
				out = append(out, sweepOpt{AxisValue{key, label(v)}, func(c *Spec) { apply(c, v) }})
			}
			return out
		},
		check: func(s *Spec) error {
			if check == nil {
				return nil
			}
			for _, v := range vals(s.Sweep) {
				if err := check(s, v); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// percent labels a probability; 6 significant digits keep labels like
// 7% from leaking float noise (0.07·100 is not exactly 7 in binary).
func percent(p float64) string { return strconv.FormatFloat(p*100, 'g', 6, 64) + "%" }

// atLeast is the check of the plain integer axes.
func atLeast(name string, min int) func(*Spec, int) error {
	return func(_ *Spec, v int) error {
		if v < min {
			return fmt.Errorf("%s value %d < %d", name, v, min)
		}
		return nil
	}
}

// sized is atLeast for an axis that regrows the topology and so needs
// one of the kinds it knows how to regrow.
func sized(name string, min int, needs string, kinds ...string) func(*Spec, int) error {
	inRange := atLeast(name, min)
	return func(s *Spec, v int) error {
		for _, k := range kinds {
			if s.Topology.Kind == k {
				return inRange(s, v)
			}
		}
		return fmt.Errorf("%s axis needs a %s, not %q", name, needs, s.Topology.Kind)
	}
}

// sweepAxes lists every axis in Sweep field order, which is expansion
// order (the last-listed axis varies fastest).
var sweepAxes = []sweepAxis{
	axisOf("hops", func(sw *Sweep) []int { return sw.Hops }, strconv.Itoa,
		func(c *Spec, h int) { c.Topology.Nodes = h + 1 },
		sized("hops", 1, "chain topology", TopoChain)),
	axisOf("dev", func(sw *Sweep) []int { return sw.Devices }, strconv.Itoa,
		func(c *Spec, d int) { c.Topology.Nodes = d + 1 },
		sized("devices", 1, "star or chain topology", TopoStar, TopoChain)),
	axisOf("n", func(sw *Sweep) []int { return sw.Nodes }, strconv.Itoa,
		func(c *Spec, n int) { c.Topology.Nodes = n },
		func(s *Spec, n int) error {
			if s.Topology.Kind != TopoRandomGeometric {
				return fmt.Errorf("nodes axis needs a random_geometric topology, not %q (chain/star sizes sweep via hops/devices)", s.Topology.Kind)
			}
			return atLeast("nodes", 2)(s, n)
		}),
	axisOf("per", func(sw *Sweep) []float64 { return sw.PER }, percent,
		func(c *Spec, p float64) { c.Net.PER = p }, nil),
	axisOf("loss", func(sw *Sweep) []float64 { return sw.InjectedLoss }, percent,
		func(c *Spec, p float64) { c.Net.InjectedLoss = p }, nil),
	axisOf("intf", func(sw *Sweep) []float64 { return sw.Interference }, percent,
		func(c *Spec, v float64) { c.Net.Interference = v }, nil),
	axisOf("d", func(sw *Sweep) []Duration { return sw.RetryDelay }, Duration.String,
		func(c *Spec, d Duration) { c.Net.RetryDelay = &d }, nil),
	axisOf("mss", func(sw *Sweep) []int { return sw.SegFrames },
		func(f int) string { return strconv.Itoa(f) + "f" },
		func(c *Spec, f int) { c.Net.SegFrames = f }, atLeast("seg_frames", 1)),
	axisOf("w", func(sw *Sweep) []int { return sw.WindowSegs }, strconv.Itoa,
		func(c *Spec, w int) { c.Net.WindowSegs = w }, atLeast("window_segs", 1)),
	axisOf("cc", func(sw *Sweep) []string { return sw.Variants },
		func(v string) string { return v },
		func(c *Spec, v string) {
			for i := range c.Flows {
				c.Flows[i].Variant = v
			}
		}, nil),
	axisOf("proto", func(sw *Sweep) []string { return sw.Protocols },
		func(p string) string { return p },
		func(c *Spec, p string) {
			protocol, confirmable, rto, _ := protoPreset(p)
			for i := range c.Flows {
				f := &c.Flows[i]
				f.Protocol = protocol
				f.Confirmable = confirmable
				f.RTO = rto
				if protocol != protoTCP {
					// TCP-only knobs have nothing to bind to.
					f.Variant, f.Profile, f.Trace = "", "", false
				}
			}
		},
		func(_ *Spec, p string) error {
			if _, _, _, ok := protoPreset(p); !ok {
				return fmt.Errorf("unknown protocol preset %q (have tcp, udp, coap, coap-non, cocoa)", p)
			}
			return nil
		}),
}

// axes lists the sweep's populated dimensions in field order.
func (sw *Sweep) axes() [][]sweepOpt {
	var out [][]sweepOpt
	for _, ax := range sweepAxes {
		if opts := ax.opts(sw); len(opts) > 0 {
			out = append(out, opts)
		}
	}
	return out
}

// Expand returns the cartesian grid of cells a sweep spec describes, in
// deterministic order: axes in Sweep field order, the last-listed axis
// varying fastest. A spec without a sweep expands to itself. Each cell
// drops the Sweep block, appends "/axis=value" per coordinate to its
// name, records the coordinates in Point, and — when SeedStep is set —
// offsets every seed by cellIndex·SeedStep.
func (s *Spec) Expand() []*Spec {
	if s.Sweep == nil || s.Sweep.empty() {
		return []*Spec{s}
	}
	axes := s.Sweep.axes()
	var cells []*Spec
	picked := make([]sweepOpt, len(axes))
	var rec func(depth int)
	rec = func(depth int) {
		if depth == len(axes) {
			cells = append(cells, s.cell(len(cells), picked))
			return
		}
		for _, o := range axes[depth] {
			picked[depth] = o
			rec(depth + 1)
		}
	}
	rec(0)
	return cells
}

// cell instantiates one expansion point of a sweep spec.
func (s *Spec) cell(i int, picked []sweepOpt) *Spec {
	c := *s
	c.Sweep = nil
	c.Point = nil
	c.Flows = append([]FlowSpec(nil), s.Flows...)
	c.Nodes = append([]NodeSpec(nil), s.Nodes...)
	c.Seeds = append([]int64(nil), s.Seeds...)
	if step := s.Sweep.SeedStep; step != 0 {
		if len(c.Seeds) == 0 {
			c.Seeds = []int64{1}
		}
		for k := range c.Seeds {
			c.Seeds[k] += int64(i) * step
		}
	}
	parts := make([]string, 0, len(picked))
	for _, o := range picked {
		o.apply(&c)
		c.Point = append(c.Point, o.av)
		parts = append(parts, o.av.Axis+"="+o.av.Value)
	}
	if len(parts) > 0 {
		c.Name = s.Name + "/" + strings.Join(parts, "/")
	}
	return &c
}

// Resource limits. A spec is outside input: what it asks the process to
// allocate is bounded here, by Validate, so a hostile or mistyped file
// gets an error naming the field and the limit instead of the OOM
// killer. Each is far above anything checked in (city_100k.json is
// 100 000 nodes; the largest example grid is 60 cells, 5 seeds).
const (
	maxNodes = 1 << 20 // mesh nodes one cell may instantiate
	maxCells = 1 << 16 // cells one sweep spec may expand to
	maxSeeds = 1 << 12 // seeds one spec may list
	// Bytes of send (and of receive) buffer one connection may get:
	// window_segs × the MSS seg_frames derives, counted at the most a
	// frame can carry (phy.MaxMACPayload).
	maxConnBuf  = 1 << 20
	maxQueueCap = 1 << 16 // net.queue_cap, gateway.wan.queue_cap
	// Neighbour-list entries (a link counted from both ends) a topology's
	// adjacency may hold by adjacencyEntries' estimate: every node the node
	// limit admits at the mean degree the city examples are built for
	// (density 16). city_100k.json estimates at 1.6 M (7.9 M built: its
	// placement clusters round the border router); a 16 000-node star,
	// whose leaves each decode 41% of the others, at 105 M (839 MB built).
	maxAdjacency = maxNodes * 16
)

// adjacencyEntries estimates, from the size fields alone, how many
// neighbour-list entries the topology's adjacency holds.
func (t TopologySpec) adjacencyEntries() float64 {
	n := float64(t.nodeCount())
	switch t.Kind {
	case TopoStar:
		// mesh.Star's decode range is 1.2 radii: the hub reaches every
		// leaf, and a leaf every leaf within 2·asin(0.6) ≈ 73.7° of it.
		leaves := n - 1
		return 2*leaves + leaves*leaves*2*math.Asin(0.6)/math.Pi
	case TopoRandomGeometric:
		density := t.Density
		if density == 0 {
			density = mesh.DefaultDensity
		}
		// The target mean degree; once the field clamps to one range
		// across, every node decodes nearly every other.
		return n * math.Min(density, n-1)
	}
	return 2 * n // a path (chain, twinleaf), or the 15-node office
}

// datagramSize is the uncompressed IPv6 datagram one full TCP segment of
// segFrames frames makes — what 6LoWPAN's FRAG1/FRAGN headers must be able
// to state in their 11-bit datagram_size (sixlowpan.MaxDatagramSize).
func datagramSize(segFrames int) int {
	return ip6.HeaderLen + stack.SegmentSizing(segFrames, true).SegmentPayload
}

// maxSegFrames is the largest seg_frames whose datagram fits that field,
// worked out from the frame and header sizes rather than written down.
var maxSegFrames = func() int {
	f := 1
	for datagramSize(f+1) <= sixlowpan.MaxDatagramSize {
		f++
	}
	return f
}()

// maxWindowSegs is the largest window, in segments, the per-connection
// buffer limit allows at segFrames frames per segment.
func maxWindowSegs(segFrames int) int {
	return maxConnBuf / phy.MaxMACPayload / segFrames
}

// validateSweep checks the grid's size — from the axis lengths alone,
// before anything expands it — and what the axes alone check; the
// expanded cells are validated individually afterwards.
func (s *Spec) validateSweep() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: sweep: %s", s.Name, fmt.Sprintf(format, args...))
	}
	cells := 1
	for _, dim := range s.Sweep.axes() {
		if cells *= len(dim); cells > maxCells {
			return bad("the axes multiply out to more than %d cells (the limit); split the grid", maxCells)
		}
	}
	for _, ax := range sweepAxes {
		if err := ax.check(s); err != nil {
			return bad("%v", err)
		}
	}
	return nil
}

// nodeCount returns the mesh node count the topology will instantiate.
func (t TopologySpec) nodeCount() int {
	switch t.Kind {
	case TopoChain, TopoStar, TopoRandomGeometric:
		return t.Nodes
	case TopoOffice:
		return 15
	case TopoTwinLeaf:
		return t.PathHops + 2
	}
	return 0
}

// sizeField names the topology field(s) that set nodeCount, by kind.
var sizeField = map[string]string{
	TopoChain: "nodes", TopoStar: "nodes", TopoRandomGeometric: "nodes",
	TopoTwinLeaf: "path_hops",
}

// Validate checks the spec for structural errors — unknown kinds,
// out-of-range node ids, bad variants — so a Runner never panics
// mid-simulation on a malformed file.
func (s *Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if len(s.Seeds) > maxSeeds {
		return bad("seeds: %d entries, the limit is %d", len(s.Seeds), maxSeeds)
	}
	if s.Sweep != nil && !s.Sweep.empty() {
		// A sweep spec is checked axis-by-axis, then cell-by-cell: the
		// base topology may be incomplete (a hops axis supplies the node
		// count), so only the expanded cells are fully validated.
		if err := s.validateSweep(); err != nil {
			return err
		}
		for _, c := range s.Expand() {
			if err := c.Validate(); err != nil {
				return err
			}
		}
		return nil
	}
	if s.Topology.Spacing < 0 {
		return bad("topology: negative spacing")
	}
	switch s.Topology.Kind {
	case TopoChain, TopoStar:
		if s.Topology.Nodes < 2 {
			return bad("topology %s needs nodes >= 2", s.Topology.Kind)
		}
	case TopoOffice:
	case TopoTwinLeaf:
		if s.Topology.PathHops < 1 {
			return bad("topology twinleaf needs path_hops >= 1")
		}
	case TopoRandomGeometric:
		if s.Topology.Nodes < 2 {
			return bad("topology random_geometric needs nodes >= 2")
		}
		if s.Topology.Density < 0 {
			return bad("topology random_geometric: negative density")
		}
	default:
		return bad("unknown topology kind %q (have chain, star, office, twinleaf, random_geometric)", s.Topology.Kind)
	}
	n := s.Topology.nodeCount()
	if n > maxNodes || n < 0 { // < 0: path_hops + 2 wrapped
		return bad("topology %s: %s asks for more than %d nodes (the limit)", s.Topology.Kind, sizeField[s.Topology.Kind], maxNodes)
	}
	if len(s.Flows) == 0 {
		return bad("no flows")
	}
	if s.Net.SegFrames < 0 {
		return bad("net: negative seg_frames")
	}
	if s.Net.WindowSegs < 0 {
		return bad("net: negative window_segs")
	}
	opt := s.options() // the window and segment size the run arrives at
	if opt.WindowSegs > maxWindowSegs(opt.SegFrames) {
		return bad("net: window_segs %d × seg_frames %d asks for more than %d bytes of buffer per connection (the limit)",
			opt.WindowSegs, opt.SegFrames, maxConnBuf)
	}
	// Reached by net.seg_frames and a sweep's seg_frames axis alike: each
	// lands in the cell's net block.
	if opt.SegFrames > maxSegFrames {
		return bad("net: seg_frames %d makes a %d-byte datagram; 6LoWPAN fragments describe at most %d bytes, so seg_frames is at most %d",
			opt.SegFrames, datagramSize(opt.SegFrames), sixlowpan.MaxDatagramSize, maxSegFrames)
	}
	checkRef := func(r NodeRef) error {
		if r.Host || r.End || r.Gateway {
			return nil
		}
		if r.ID < 0 || r.ID >= n {
			return bad("node %d out of range (topology has %d nodes)", r.ID, n)
		}
		return nil
	}
	gwSrc := map[string]int{}  // gateway-flow source → flow index
	perDevice, gwFlows := 0, 0 // gateway-flow census
	for i, f := range s.Flows {
		if err := checkRef(f.From); err != nil {
			return err
		}
		if err := checkRef(f.To); err != nil {
			return err
		}
		proto := f.Protocol
		if proto == "" {
			proto = protoTCP
		}
		if f.From == f.To {
			return bad("flow %d: from == to (%s)", i, f.From)
		}
		if f.From.Host && f.To.Host {
			return bad("flow %d: both endpoints are the host", i)
		}
		if f.From.Gateway {
			return bad("flow %d: \"gateway\" is a sink reference (devices send up to the gateway tier)", i)
		}
		if f.To.Gateway {
			if s.Gateway == nil {
				return bad("flow %d: \"to\": \"gateway\" needs a gateway block", i)
			}
			if f.From.Host {
				return bad("flow %d: gateway flows originate at mesh devices, not the host", i)
			}
			if proto != protoTCP && proto != protoCoAP {
				return bad("flow %d: gateway flows need protocol tcp or coap, not %q", i, proto)
			}
			switch f.Pattern {
			case "", PatternAnemometer:
			default:
				return bad("flow %d: gateway flows carry telemetry (anemometer), not pattern %q", i, f.Pattern)
			}
			// The gateway credits deliveries per source address; two flows
			// from one device would collide in its registration table.
			gwFlows++
			if f.PerDevice {
				perDevice++
			} else if prev, dup := gwSrc[f.From.String()]; dup {
				return bad("flows %d and %d both terminate device %s at the gateway (one gateway flow per device)", prev, i, f.From)
			} else {
				gwSrc[f.From.String()] = i
			}
		}
		if f.PerDevice && !f.To.Gateway {
			return bad("flow %d: per_device needs \"to\": \"gateway\"", i)
		}
		if f.Stride < 0 {
			return bad("flow %d: negative stride", i)
		}
		if f.Stride > 1 && !f.PerDevice {
			return bad("flow %d: stride only thins a per_device template", i)
		}
		if _, err := cc.Parse(f.Variant); err != nil {
			return bad("flow %d: %v", i, err)
		}
		if f.Profile != "" {
			if _, err := uip.ParseProfile(f.Profile); err != nil {
				return bad("flow %d: %v", i, err)
			}
		}
		switch f.Pattern {
		case "", PatternBulk, PatternAnemometer:
		default:
			return bad("flow %d: unknown pattern %q (have bulk, anemometer)", i, f.Pattern)
		}
		switch proto {
		case protoTCP:
		case protoUDP, protoCoAP:
			// Non-TCP transports carry telemetry only; the TCP-specific
			// knobs have nothing to bind to.
			if f.Pattern == PatternBulk {
				return bad("flow %d: pattern %q needs protocol tcp (udp/coap flows carry the anemometer pattern)", i, f.Pattern)
			}
			if f.Variant != "" || f.Profile != "" || f.Trace {
				return bad("flow %d: variant/profile/trace are TCP knobs; protocol is %q", i, proto)
			}
		default:
			return bad("flow %d: unknown protocol %q (have coap, tcp, udp)", i, proto)
		}
		if proto != protoCoAP && (f.Confirmable != nil || f.RTO != "") {
			return bad("flow %d: confirmable/rto are coap knobs; protocol is %q", i, proto)
		}
		switch f.RTO {
		case "", "default", "cocoa":
		default:
			return bad("flow %d: unknown rto policy %q (have default, cocoa)", i, f.RTO)
		}
		if f.Interval < 0 {
			return bad("flow %d: negative interval", i)
		}
		if f.Batch < 0 {
			return bad("flow %d: negative batch", i)
		}
		// The sensor drains only once batch readings are queued, so a
		// batch its queue cannot hold would never send.
		if limit := sensorQueueCap(proto); f.Batch > limit {
			return bad("flow %d: batch %d is more than the %d readings the sensor queues over %s, so it would never send",
				i, f.Batch, limit, proto)
		}
	}
	if perDevice > 1 || (perDevice > 0 && gwFlows > perDevice) {
		return bad("a per_device gateway template must be the only gateway flow (its replicas cover every device)")
	}
	// Every direct flow listens on its own port (80 + its index in start
	// order), but one on a gateway's terminator port on node 0 would
	// displace the shared listener. Gateway flows share the terminators
	// by design. The walk is the run's own, so every port is the one the
	// run uses.
	err := s.eachStartedFlow(func(i int, f FlowSpec, _ bool) error {
		if s.Gateway != nil && !f.To.Gateway && !f.To.Host && !f.To.End && f.To.ID == 0 &&
			(f.port == gateway.DefaultTCPPort || f.port == gateway.DefaultCoAPPort) {
			return bad("started flow %d: port %d on node 0 is a gateway terminator port", i, f.port)
		}
		return nil
	})
	if err != nil {
		return err
	}
	roles := map[int]bool{} // node ids with a Nodes entry
	for _, ns := range s.Nodes {
		if ns.ID <= 0 || ns.ID >= n {
			return bad("node spec id %d out of range (1..%d)", ns.ID, n-1)
		}
		// Two roles for one node would build two sleep controllers that
		// poll the same parent and fight over the radio's idle state.
		if roles[ns.ID] {
			return bad("node %d is listed twice in nodes", ns.ID)
		}
		roles[ns.ID] = true
		if ns.SleepInterval < 0 || (ns.FastInterval != nil && *ns.FastInterval < 0) {
			return bad("node %d: negative sleep/fast interval", ns.ID)
		}
	}
	if a := s.AllNodes; a != nil {
		if a.SleepInterval < 0 || (a.FastInterval != nil && *a.FastInterval < 0) {
			return bad("all_nodes: negative sleep/fast interval")
		}
	}
	if g := s.Gateway; g != nil {
		if g.MaxConns < 0 {
			return bad("gateway: negative max_conns")
		}
		if g.WAN.BandwidthKbps < 0 {
			return bad("gateway: negative wan bandwidth_kbps")
		}
		if g.WAN.RTT < 0 {
			return bad("gateway: negative wan rtt")
		}
		if g.WAN.Loss < 0 || g.WAN.Loss >= 1 {
			return bad("gateway: wan loss %v out of range [0,1)", g.WAN.Loss)
		}
		if g.WAN.QueueCap < 0 || g.WAN.QueueCap > maxQueueCap {
			return bad("gateway: wan queue_cap %d out of range [0,%d]", g.WAN.QueueCap, maxQueueCap)
		}
	}
	if s.Net.QueueCap < 0 || s.Net.QueueCap > maxQueueCap {
		return bad("net: queue_cap %d out of range [0,%d]", s.Net.QueueCap, maxQueueCap)
	}
	if s.Net.PER < 0 || s.Net.PER >= 1 {
		return bad("per %v out of range [0,1)", s.Net.PER)
	}
	if s.Net.InjectedLoss < 0 || s.Net.InjectedLoss >= 1 {
		return bad("injected_loss %v out of range [0,1)", s.Net.InjectedLoss)
	}
	if s.Net.Interference < 0 {
		return bad("negative interference peak")
	}
	if s.Net.RetryDelay != nil && *s.Net.RetryDelay < 0 {
		return bad("negative retry_delay")
	}
	if s.Duration < 0 || s.Warmup < 0 {
		return bad("negative duration")
	}
	if s.DCSample < 0 || s.IdleWindow < 0 {
		return bad("negative dc_sample/idle_window")
	}
	// Checked last, so that a fleet too dense to build still reports the
	// port it would have got wrong first. Only a star or a random field
	// can get here: a path of maxNodes nodes is 2 M entries.
	if links := s.Topology.adjacencyEntries(); links > maxAdjacency {
		size := fmt.Sprintf("nodes %d", n)
		if s.Topology.Kind == TopoRandomGeometric {
			size += fmt.Sprintf(" at density %g", s.Topology.Density)
		}
		return bad("topology %s: %s make an adjacency of about %.0f neighbour entries, more than %d (the limit)",
			s.Topology.Kind, size, links, maxAdjacency)
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
