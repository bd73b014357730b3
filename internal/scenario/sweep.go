package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

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
