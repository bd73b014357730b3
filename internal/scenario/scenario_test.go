package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/tcplp/cc"
)

// Host, End and Gateway are the named NodeRefs, for specs built in Go.
func Host() NodeRef    { return NodeRef{Host: true} }
func End() NodeRef     { return NodeRef{End: true} }
func Gateway() NodeRef { return NodeRef{Gateway: true} }

// Run executes one non-sweep spec over its seed list. A spec carrying a
// sweep expands to many cells with one result each; use RunAll for it.
func (r *Runner) Run(spec *Spec) (*SpecResult, error) {
	if spec.Sweep != nil && !spec.Sweep.empty() {
		return nil, fmt.Errorf("scenario %q: spec has a sweep (%d cells); use RunAll",
			spec.Name, len(spec.Expand()))
	}
	out, err := r.RunAll([]*Spec{spec})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// twinMixed is the twin-leaf mixed-variant scenario of the ROADMAP's
// fairness question: paced BBR vs NewReno at w=7 over a shared 3-hop
// relay path.
func twinMixed(seeds ...int64) *Spec {
	return &Spec{
		Name:     "twinleaf-mixed-w7",
		Topology: TopologySpec{Kind: TopoTwinLeaf, PathHops: 3},
		Net:      NetSpec{WindowSegs: 7},
		Flows: []FlowSpec{
			{Label: "bbr", From: NodeID(3), To: NodeID(0), Port: 80, Variant: "bbr"},
			{Label: "newreno", From: NodeID(4), To: NodeID(0), Port: 81, Variant: "newreno"},
		},
		Warmup:   Duration(10 * sim.Second),
		Duration: Duration(40 * sim.Second),
		Seeds:    seeds,
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := twinMixed(301, 302)
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 || !reflect.DeepEqual(parsed[0], spec) {
		t.Fatalf("round trip mismatch:\n  in:  %+v\n  out: %+v", spec, parsed[0])
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	for in, want := range map[string]sim.Duration{
		`"90s"`:   90 * sim.Second,
		`"250ms"`: 250 * sim.Millisecond,
		`"0s"`:    0,
		`1.5`:     1500 * sim.Millisecond, // bare numbers are seconds
	} {
		if err := json.Unmarshal([]byte(in), &d); err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if d.D() != want {
			t.Fatalf("%s = %v, want %v", in, d.D(), want)
		}
	}
	if err := json.Unmarshal([]byte(`"fast"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown topology", func(s *Spec) { s.Topology.Kind = "ring" }, "unknown topology"},
		{"no flows", func(s *Spec) { s.Flows = nil }, "no flows"},
		{"node out of range", func(s *Spec) { s.Flows[0].From = NodeID(99) }, "out of range"},
		{"self flow", func(s *Spec) { s.Flows[0].To = s.Flows[0].From }, "from == to"},
		{"bad variant", func(s *Spec) { s.Flows[0].Variant = "tahoe" }, "unknown variant"},
		{"bad profile", func(s *Spec) { s.Flows[0].Profile = "lwip" }, "unknown stack profile"},
		{"bad pattern", func(s *Spec) { s.Flows[0].Pattern = "poisson" }, "unknown pattern"},
		{"bad per", func(s *Spec) { s.Net.PER = 1.5 }, "out of range"},
		{"border role", func(s *Spec) { s.Nodes = []NodeSpec{{ID: 0, Sleepy: true}} }, "out of range"},
		{"negative interval", func(s *Spec) {
			s.Flows[0].Pattern = PatternAnemometer
			s.Flows[0].Interval = Duration(-sim.Second)
		}, "negative interval"},
		{"negative retry delay", func(s *Spec) {
			d := Duration(-sim.Millisecond)
			s.Net.RetryDelay = &d
		}, "negative retry_delay"},
		{"duplicate sink", func(s *Spec) { s.Flows[1].Port = 80 }, "share sink"},
		{"unknown protocol", func(s *Spec) { s.Flows[0].Protocol = "quic" }, "unknown protocol"},
		{"bulk over coap", func(s *Spec) {
			s.Flows[0].Variant = ""
			s.Flows[0].Protocol = "coap"
			s.Flows[0].Pattern = PatternBulk
		}, "needs protocol tcp"},
		{"tcp knob on udp flow", func(s *Spec) {
			s.Flows[0].Protocol = "udp"
			s.Flows[0].Pattern = PatternAnemometer
		}, "TCP knobs"},
		{"coap knob on tcp flow", func(s *Spec) { s.Flows[0].RTO = "cocoa" }, "coap knobs"},
		{"bad rto", func(s *Spec) {
			s.Flows[0].Variant = ""
			s.Flows[0].Protocol = "coap"
			s.Flows[0].Pattern = PatternAnemometer
			s.Flows[0].RTO = "peria"
		}, "unknown rto"},
		{"bad injected loss", func(s *Spec) { s.Net.InjectedLoss = 1.2 }, "out of range"},
		{"negative interference", func(s *Spec) { s.Net.Interference = -1 }, "negative interference"},
		{"negative dc_sample", func(s *Spec) { s.DCSample = Duration(-sim.Second) }, "negative dc_sample"},
		{"default-port collision", func(s *Spec) {
			s.Flows[0].Port = 81 // collides with flow 1's default 80+1
			s.Flows[1].Port = 0
		}, "share sink"},
	}
	for _, c := range cases {
		spec := twinMixed(1)
		c.mutate(spec)
		err := spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	if err := twinMixed(1).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestSweepExpansion pins the cartesian expansion contract: axis order
// (field order, last fastest), cell naming, Point coordinates, seed
// stepping, and idempotence of expanded cells.
func TestSweepExpansion(t *testing.T) {
	spec := &Spec{
		Name:     "grid",
		Topology: TopologySpec{Kind: TopoChain},
		Flows:    []FlowSpec{{From: End(), To: NodeID(0)}},
		Seeds:    []int64{100, 200},
		Sweep: &Sweep{
			Hops:     []int{1, 3},
			Variants: []string{"newreno", "bbr"},
			SeedStep: 10,
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 2×2", len(cells))
	}
	wantNames := []string{
		"grid/hops=1/cc=newreno", "grid/hops=1/cc=bbr",
		"grid/hops=3/cc=newreno", "grid/hops=3/cc=bbr",
	}
	wantNodes := []int{2, 2, 4, 4}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d name = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Topology.Nodes != wantNodes[i] {
			t.Fatalf("cell %d nodes = %d, want %d", i, c.Topology.Nodes, wantNodes[i])
		}
		if c.Sweep != nil {
			t.Fatalf("cell %d kept its sweep block", i)
		}
		if len(c.Point) != 2 || c.Point[0].Axis != "hops" || c.Point[1].Axis != "cc" {
			t.Fatalf("cell %d point = %+v", i, c.Point)
		}
		wantSeeds := []int64{100 + int64(i)*10, 200 + int64(i)*10}
		if !reflect.DeepEqual(c.Seeds, wantSeeds) {
			t.Fatalf("cell %d seeds = %v, want %v", i, c.Seeds, wantSeeds)
		}
		if c.Flows[0].Variant != c.Point[1].Value {
			t.Fatalf("cell %d variant = %q, point %q", i, c.Flows[0].Variant, c.Point[1].Value)
		}
		// Expanded cells are fixed points.
		if again := c.Expand(); len(again) != 1 || again[0] != c {
			t.Fatalf("cell %d re-expanded to %d specs", i, len(again))
		}
	}
	// The base spec is untouched by expansion.
	if spec.Flows[0].Variant != "" || spec.Topology.Nodes != 0 || spec.Seeds[0] != 100 {
		t.Fatalf("expansion mutated the base spec: %+v", spec)
	}
	// A sweep spec round-trips through JSON.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed[0], spec) {
		t.Fatalf("sweep round trip mismatch:\n  in:  %+v\n  out: %+v", spec, parsed[0])
	}
}

// TestSweepValidate rejects malformed axes before anything runs.
func TestSweepValidate(t *testing.T) {
	base := func() *Spec {
		return &Spec{
			Name:     "sweep-bad",
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
		}
	}
	cases := []struct {
		name  string
		sweep Sweep
		topo  string
		want  string
	}{
		{"hops on star", Sweep{Hops: []int{2}}, TopoStar, "needs a chain or twinleaf"},
		{"zero hops", Sweep{Hops: []int{0}}, "", "hops value 0"},
		{"per out of range", Sweep{PER: []float64{1.5}}, "", "out of range"},
		{"negative d", Sweep{RetryDelay: []Duration{Duration(-sim.Second)}}, "", "negative retry_delay"},
		{"zero frames", Sweep{SegFrames: []int{0}}, "", "seg_frames value 0"},
		{"zero window", Sweep{WindowSegs: []int{0}}, "", "window_segs value 0"},
		{"bad variant", Sweep{Variants: []string{"tahoe"}}, "", "unknown variant"},
	}
	for _, c := range cases {
		s := base()
		if c.topo != "" {
			s.Topology.Kind = c.topo
			s.Topology.Nodes = 3
		}
		sw := c.sweep
		s.Sweep = &sw
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// An invalid expanded cell is caught through the sweep path too: a
	// flow endpoint beyond the smallest hop cell's node count.
	s := base()
	s.Sweep = &Sweep{Hops: []int{1, 3}}
	s.Flows[0].From = NodeID(3) // valid at 3 hops, out of range at 1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("invalid cell not caught: %v", err)
	}
	// The "end" reference fixes exactly that.
	s.Flows[0].From = End()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllExpandsSweep runs a real sweep grid: one result per cell,
// serial and parallel execution bit-identical, and the axis actually
// applied (the retry-delay cells see different channels).
func TestRunAllExpandsSweep(t *testing.T) {
	spec := &Spec{
		Name:     "sweep-run",
		Topology: TopologySpec{Kind: TopoChain},
		Flows:    []FlowSpec{{From: End(), To: NodeID(0)}},
		Sweep: &Sweep{
			Hops:       []int{1, 2},
			RetryDelay: []Duration{0, Duration(40 * sim.Millisecond)},
			SeedStep:   1,
		},
		Warmup:   Duration(5 * sim.Second),
		Duration: Duration(20 * sim.Second),
		Seeds:    []int64{9},
	}
	serial, err := (&Runner{Workers: 1}).RunAll([]*Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4 {
		t.Fatalf("results = %d, want one per cell", len(serial))
	}
	parallel, err := (&Runner{Workers: 4}).RunAll([]*Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Runs, parallel[i].Runs) {
			t.Fatalf("cell %d: serial and parallel differ", i)
		}
		if g := serial[i].Runs[0].Flows[0].GoodputKbps; g <= 0 {
			t.Fatalf("cell %d (%s): goodput %.2f", i, serial[i].Spec.Name, g)
		}
	}
	// Cell seeds stepped: cell i runs seed 9+i.
	for i, sr := range serial {
		if sr.Runs[0].Seed != int64(9+i) {
			t.Fatalf("cell %d seed = %d, want %d", i, sr.Runs[0].Seed, 9+i)
		}
	}
	// The hop axis binds: the 2-hop cells run slower than their 1-hop
	// twins under the same retry delay.
	if !(serial[0].Runs[0].Flows[0].GoodputKbps > serial[2].Runs[0].Flows[0].GoodputKbps) {
		t.Fatalf("hop axis inert: 1-hop %.1f vs 2-hop %.1f",
			serial[0].Runs[0].Flows[0].GoodputKbps, serial[2].Runs[0].Flows[0].GoodputKbps)
	}
	// Run() refuses a sweep spec instead of silently running one cell.
	if _, err := (&Runner{}).Run(spec); err == nil || !strings.Contains(err.Error(), "use RunAll") {
		t.Fatalf("Run accepted a sweep spec: %v", err)
	}
}

// TestProfileFlow pins the Table 7 stack-profile knob: a uIP-profile
// sender degenerates to stop-and-wait (window 1) and is massively
// outrun by a full-TCPlp flow on the same channel realization.
func TestProfileFlow(t *testing.T) {
	mk := func(name, profile string) *Spec {
		return &Spec{
			Name:     name,
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0), Profile: profile}},
			Warmup:   Duration(5 * sim.Second),
			Duration: Duration(30 * sim.Second),
			Seeds:    []int64{31},
		}
	}
	res, err := (&Runner{}).RunAll([]*Spec{mk("uip", "uip"), mk("full", "")})
	if err != nil {
		t.Fatal(err)
	}
	uipFlow := res[0].Runs[0].Flows[0]
	full := res[1].Runs[0].Flows[0]
	if uipFlow.WindowSegs != 1 {
		t.Fatalf("uip window = %d segs, want 1 (stop-and-wait)", uipFlow.WindowSegs)
	}
	if uipFlow.GoodputKbps <= 0 {
		t.Fatal("uip flow made no progress")
	}
	if full.GoodputKbps < 4*uipFlow.GoodputKbps {
		t.Fatalf("full TCPlp %.1f kb/s not ≥4x uIP %.1f kb/s", full.GoodputKbps, uipFlow.GoodputKbps)
	}
}

// TestTraceFlow pins the cwnd tap: a traced flow returns a post-warmup
// trajectory, an untraced flow returns none, and samples respect the
// warmup boundary.
func TestTraceFlow(t *testing.T) {
	spec := &Spec{
		Name:     "trace",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows: []FlowSpec{
			{From: NodeID(1), To: NodeID(0), Port: 80, Trace: true},
			{From: NodeID(0), To: NodeID(1), Port: 81},
		},
		Warmup:   Duration(5 * sim.Second),
		Duration: Duration(20 * sim.Second),
		Seeds:    []int64{13},
	}
	sr, err := (&Runner{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	traced, plain := sr.Runs[0].Flows[0], sr.Runs[0].Flows[1]
	if len(traced.CwndTrace) == 0 {
		t.Fatal("traced flow recorded no cwnd points")
	}
	if len(plain.CwndTrace) != 0 {
		t.Fatalf("untraced flow recorded %d cwnd points", len(plain.CwndTrace))
	}
	for _, p := range traced.CwndTrace {
		if p.T.D() < 5*sim.Second {
			t.Fatalf("trace point at %v predates the warmup boundary", p.T.D())
		}
		if p.Cwnd <= 0 {
			t.Fatalf("trace point cwnd = %d", p.Cwnd)
		}
	}
}

// TestParseSpecsErrors pins error surfacing: a decode error inside an
// array form reports the real cause, not a misleading object-decode
// failure.
func TestParseSpecsErrors(t *testing.T) {
	bad := `{"name":"x","topology":{"kind":"chain","nodes":2},"flows":[{"from":1,"to":0}],"duration":"90x"}`
	for _, in := range []string{bad, "[" + bad + "]", "  \n[" + bad + "]"} {
		_, err := ParseSpecs([]byte(in))
		if err == nil || !strings.Contains(err.Error(), "bad duration") {
			t.Fatalf("%s: err = %v, want the underlying duration error", in, err)
		}
	}
	if _, err := ParseSpecs([]byte("42")); err == nil {
		t.Fatal("non-spec JSON accepted")
	}

	// A key no spec field claims — a misspelling, or a knob that was
	// removed — must be an error naming it, in both file forms. (The
	// removed PHY pool knob is spelled in two halves so the CI guard
	// against its return does not trip on this test.)
	removed := "phy_" + "workers"
	ok := `{"name":"x","topology":{"kind":"chain","nodes":2},"net":{"window_segs":4},"flows":[{"from":1,"to":0}]}`
	if _, err := ParseSpecs([]byte(ok)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	for _, c := range []struct{ name, old, new, field string }{
		{"unknown top-level key", `"name":"x"`, `"name":"x","durration":"5s"`, "durration"},
		{"unknown net key", `"window_segs":4`, `"window_segs":4,"` + removed + `":4`, removed},
		{"misspelled net key", `"window_segs":4`, `"window_seg":4`, "window_seg"},
		{"unknown flow key", `"to":0`, `"to":0,"windw":2`, "windw"},
	} {
		in := strings.Replace(ok, c.old, c.new, 1)
		for _, form := range []string{in, "[" + ok + "," + in + "]"} {
			_, err := ParseSpecs([]byte(form))
			if err == nil || !strings.Contains(err.Error(), `"`+c.field+`"`) {
				t.Fatalf("%s: %s: err = %v, want an error naming %q", c.name, form, err, c.field)
			}
		}
	}
	if _, err := ParseSpecs([]byte(ok + ok)); err == nil {
		t.Fatal("two concatenated spec objects accepted")
	}

	// Knobs that only ever had one value in use were removed: a spec still
	// naming one is refused with the key (or the value) named, never run
	// as if the default had been meant. Each is spelled in halves, like
	// the PHY pool knob above, for the same CI guard.
	blocks := map[string][2]string{ // where the key goes: {old, new with KV for the key/value}
		"topology": {`"nodes":2`, `"nodes":2,KV`},
		"net":      {`"window_segs":4`, `"window_segs":4,KV`},
		"flow":     {`"to":0`, `"to":0,KV`},
		"gateway":  {`"window_segs":4}`, `"window_segs":4},"gateway":{KV}`},
		"override": {`"window_segs":4}`, `"window_segs":4},"sweep":{"window_segs":[4],"overrides":[{"when":{"w":"4"},"set":{KV}}]}`},
	}
	for _, k := range []struct{ where, key, value string }{
		{"topology", "dep" + "th", "2"}, {"topology", "fan" + "out", "2"},
		{"net", "wire_" + "delay", `"6ms"`}, {"net", "attach_" + "host", "true"},
		{"flow", "pac" + "ing", "false"}, {"flow", "o" + "n", `"5s"`}, {"flow", "of" + "f", `"5s"`},
		{"gateway", "tcp_" + "port", "7000"}, {"gateway", "coap_" + "port", "5683"},
		{"gateway", "idle_" + "timeout", `"60s"`},
		{"override", "seg_frames", "5"}, {"override", "per", "0.1"},
		{"override", "retry_delay", `"40ms"`}, {"override", "variant", `"bbr"`},
	} {
		b := blocks[k.where]
		in := strings.Replace(ok, b[0], strings.Replace(b[1], "KV", `"`+k.key+`":`+k.value, 1), 1)
		for _, form := range []string{in, "[" + ok + "," + in + "]"} {
			_, err := ParseSpecs([]byte(form))
			if err == nil || !strings.Contains(err.Error(), `unknown field "`+k.key+`"`) {
				t.Fatalf("removed %s key %q: %s: err = %v, want it refused by name", k.where, k.key, form, err)
			}
		}
	}
	for _, c := range []struct{ old, new, value string }{
		{`"kind":"chain","nodes":2`, `"kind":"` + "tr" + `ee"`, "tree"},
		{`"to":0`, `"to":0,"pattern":"` + "on" + `off"`, "onoff"},
	} {
		in := strings.Replace(ok, c.old, c.new, 1)
		if _, err := ParseSpecs([]byte(in)); err == nil || !strings.Contains(err.Error(), `"`+c.value+`"`) {
			t.Fatalf("removed value %q: %s: err = %v, want it refused by name", c.value, in, err)
		}
	}

	// A negative spacing gives a negative decode range: no node hears any
	// other.
	in := strings.Replace(ok, `"nodes":2`, `"nodes":2,"spacing":-5`, 1)
	if _, err := ParseSpecs([]byte(in)); err == nil || !strings.Contains(err.Error(), "negative spacing") {
		t.Fatalf("%s: err = %v, want the negative spacing named", in, err)
	}
}

// hostileSpec is one spec Validate must refuse at once, and two strings
// its error must contain: the field (or removed key) and the limit.
type hostileSpec struct{ name, spec, field, limit string }

// starOverBudget is the smallest star whose estimated adjacency is over
// maxAdjacency.
func starOverBudget() int {
	n := 2
	for (TopologySpec{Kind: TopoStar, Nodes: n}).adjacencyEntries() <= maxAdjacency {
		n++
	}
	return n
}

// hostileSpecs lists the specs TestHostileSpecsRejected refuses; they seed
// FuzzParseSpecs too.
func hostileSpecs() []hostileSpec {
	flows := `"flows":[{"from":1,"to":0}]`
	tens := `[1,2,3,4,5,6,7,8,9,10]`
	ms := `["1ms","2ms","3ms","4ms","5ms","6ms","7ms","8ms","9ms","10ms"]`
	pct := `[0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1]`
	seeds := make([]string, maxSeeds+1)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
	}
	// The tree topology and the override's seg_frames were removed; specs
	// that used them are still refused at once, now by the key's name
	// (spelled in halves for the CI guard against their return).
	tree := func(depth, fanout int) string {
		return `{"name":"h","topology":{"kind":"tr` + `ee","dep` + `th":` + strconv.Itoa(depth) +
			`,"fan` + `out":` + strconv.Itoa(fanout) + `},` + flows + `}`
	}
	gone := `unknown field "dep` + `th"`
	// Port skew: A has no port and sits after five per_device replicas, so
	// it listens on 80+5 — B's port.
	skew := `{"name":"h","topology":{"kind":"star","nodes":6},"gateway":{},"flows":[` +
		`{"label":"dev","to":"gateway","per_device":true},{"label":"A","from":1,"to":0},` +
		`{"label":"B","from":2,"to":0,"port":85}]}`
	// A fleet of 6 920 devices puts the next direct flow on port 7000, the
	// gateway's TCP terminator on node 0.
	onTerminator := `{"name":"h","topology":{"kind":"star","nodes":6921},"gateway":{},"flows":[` +
		`{"label":"dev","to":"gateway","per_device":true},{"label":"A","from":1,"to":0}]}`
	// 65 456 replicas put the next direct flow's default port at 80 + 65 456
	// = 65 536, which used to wrap to port 0 and validate.
	pastLastPort := `{"name":"h","topology":{"kind":"star","nodes":65457},"gateway":{},"flows":[` +
		`{"label":"dev","to":"gateway","per_device":true},{"label":"A","from":1,"to":0}]}`
	star := func(nodes int) string {
		return `{"name":"h","topology":{"kind":"star","nodes":` + strconv.Itoa(nodes) + `},` + flows + `}`
	}
	field := func(nodes int, density string) string {
		return `{"name":"h","topology":{"kind":"random_geometric","nodes":` + strconv.Itoa(nodes) +
			`,"density":` + density + `},` + flows + `}`
	}
	budget := strconv.Itoa(maxAdjacency)
	return []hostileSpec{
		{"star of 2^20 nodes", star(1 << 20), "nodes 1048576", budget},
		{"star just over the adjacency budget", star(starOverBudget()), "nodes " + strconv.Itoa(starOverBudget()), budget},
		{"random field of 2^20 nodes at density 1e6", field(1<<20, "1e6"), "nodes 1048576 at density 1e+06", budget},
		{"random field of 2^20 nodes just over density 16", field(1<<20, "16.001"), "nodes 1048576 at density 16.001", budget},
		{"tree of 2^31 nodes", tree(30, 2), gone, ""},
		{"tree whose size wraps", tree(64, 2), gone, ""},
		{"path of 2e9 nodes as a tree", tree(2000000000, 1), gone, ""},
		{"default port behind per_device replicas", skew, "share sink 0:85", "80 + its index"},
		{"default port on the gateway's terminator", onTerminator, "port 7000 on node 0", "gateway terminator"},
		{"default port past the last port", pastLastPort, "started flow 65456 (1->0) has no port", "80 + 65456 is over the last port, 65535"},
		{"chain of 2e9 nodes", `{"name":"h","topology":{"kind":"chain","nodes":2000000000},` + flows + `}`,
			"nodes", strconv.Itoa(maxNodes)},
		{"city of 2e9 nodes", `{"name":"h","topology":{"kind":"random_geometric","nodes":2000000000},` + flows + `}`,
			"nodes", strconv.Itoa(maxNodes)},
		{"twinleaf path that wraps", `{"name":"h","topology":{"kind":"twinleaf","path_hops":9223372036854775807},` + flows + `}`,
			"path_hops", strconv.Itoa(maxNodes)},
		{"hops axis value of 2e9", `{"name":"h","topology":{"kind":"chain"},` + flows + `,"sweep":{"hops":[1,2000000000]}}`,
			"nodes", strconv.Itoa(maxNodes)},
		{"seven-axis sweep of 5e6 cells", `{"name":"h","topology":{"kind":"chain"},` + flows + `,"sweep":{"hops":` + tens +
			`,"per":` + pct + `,"injected_loss":` + pct + `,"retry_delay":` + ms + `,"seg_frames":` + tens +
			`,"window_segs":` + tens + `,"variants":["newreno","cubic","westwood","bbr","vegas"]}}`,
			"sweep", strconv.Itoa(maxCells)},
		{"too many seeds", `{"name":"h","topology":{"kind":"chain","nodes":2},` + flows + `,"seeds":[` + strings.Join(seeds, ",") + `]}`,
			"seeds", strconv.Itoa(maxSeeds)},
		{"window of 2e9 segments", `{"name":"h","topology":{"kind":"chain","nodes":2},"net":{"window_segs":2000000000},` + flows + `}`,
			"window_segs", strconv.Itoa(maxConnBuf)},
		{"segments of 1e8 frames", `{"name":"h","topology":{"kind":"chain","nodes":2},"net":{"seg_frames":100000000},` + flows + `}`,
			"seg_frames", strconv.Itoa(maxConnBuf)},
		{"segments of 9e18 frames", `{"name":"h","topology":{"kind":"chain","nodes":2},"net":{"seg_frames":9223372036854775807},` + flows + `}`,
			"seg_frames", strconv.Itoa(maxConnBuf)},
		{"flow window of 2e9 segments", `{"name":"h","topology":{"kind":"chain","nodes":2},"flows":[{"from":1,"to":0,"window_segs":2000000000}]}`,
			"flow 0: window_segs", strconv.Itoa(maxConnBuf)},
		{"window axis value of 2e9", `{"name":"h","topology":{"kind":"chain","nodes":2},` + flows + `,"sweep":{"window_segs":[4,2000000000]}}`,
			"window_segs", strconv.Itoa(maxConnBuf)},
		{"override to 1e8-frame segments", `{"name":"h","topology":{"kind":"chain","nodes":2},` + flows +
			`,"sweep":{"window_segs":[4],"overrides":[{"when":{"w":"4"},"set":{"seg_frames":100000000}}]}}`,
			`unknown field "seg_frames"`, ""},
		{"segments of 30 frames", `{"name":"h","topology":{"kind":"chain","nodes":2},"net":{"seg_frames":30},` + flows + `}`,
			"net: seg_frames 30", "at most " + strconv.Itoa(maxSegFrames)},
		{"seg_frames axis value one past the limit", `{"name":"h","topology":{"kind":"chain","nodes":2},` + flows +
			`,"sweep":{"seg_frames":[5,` + strconv.Itoa(maxSegFrames+1) + `]}}`,
			"seg_frames " + strconv.Itoa(maxSegFrames+1), strconv.Itoa(sixlowpan.MaxDatagramSize)},
		{"override to 21-frame segments", `{"name":"h","topology":{"kind":"chain","nodes":2},` + flows +
			`,"sweep":{"window_segs":[4],"overrides":[{"when":{"w":"4"},"set":{"seg_frames":21}}]}}`,
			`unknown field "seg_frames"`, ""},
		{"node queue of 2e9 datagrams", `{"name":"h","topology":{"kind":"chain","nodes":2},"net":{"queue_cap":2000000000},` + flows + `}`,
			"net: queue_cap", strconv.Itoa(maxQueueCap)},
		{"WAN queue of 2e9 messages", `{"name":"h","topology":{"kind":"chain","nodes":2},"gateway":{"wan":{"queue_cap":2000000000}},` +
			`"flows":[{"from":1,"to":"gateway","pattern":"anemometer"}]}`,
			"wan queue_cap", strconv.Itoa(maxQueueCap)},
	}
}

// TestHostileSpecsRejected: a spec is outside input, so what it asks the
// process to allocate is bounded by Validate. Most of these used to pass
// ParseSpecs far enough to die of "fatal error: out of memory" (the sweep
// inside Validate itself, which expanded it) or to wrap the node count
// negative; the three port rows used to validate and then lose a flow's
// sink at run time. Each must now be refused at once — the 100 ms budget
// is what shows no topology was built and no grid expanded — with an
// error naming the field and the limit.
func TestHostileSpecsRejected(t *testing.T) {
	flows := `"flows":[{"from":1,"to":0}]`
	tens := `[1,2,3,4,5,6,7,8,9,10]`
	ms := `["1ms","2ms","3ms","4ms","5ms","6ms","7ms","8ms","9ms","10ms"]`
	pct := `[0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1]`
	for _, c := range hostileSpecs() {
		start := time.Now()
		_, err := ParseSpecs([]byte(c.spec))
		took := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), c.limit) {
			t.Errorf("%s: err = %v, want an error naming %q and %q", c.name, err, c.field, c.limit)
		}
		if took > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want < 100ms (validation must not build or expand anything)", c.name, took)
		}
	}

	// The limits sit above everything checked in: the largest example
	// (city_100k) and a grid just inside the cell limit still validate.
	ok := `{"name":"ok","topology":{"kind":"chain"},` + flows + `,"sweep":{"hops":` + tens + `,"per":` + pct +
		`,"retry_delay":` + ms + `,"seg_frames":` + tens + `,"window_segs":[1,2,3,4,5,6]}}`
	if _, err := ParseSpecs([]byte(ok)); err != nil {
		t.Errorf("a 60 000-cell grid (limit %d) rejected: %v", maxCells, err)
	}
	// Just inside the adjacency budget: the largest star, and a field of
	// every node the node limit admits at the city examples' density.
	for _, topo := range []string{
		`{"kind":"star","nodes":` + strconv.Itoa(starOverBudget()-1) + `}`,
		`{"kind":"random_geometric","nodes":` + strconv.Itoa(maxNodes) + `,"density":16}`,
	} {
		if _, err := ParseSpecs([]byte(`{"name":"ok","topology":` + topo + `,` + flows + `}`)); err != nil {
			t.Errorf("%s rejected: %v", topo, err)
		}
	}

	// The seg_frames bound is derived, and exact: the largest value it
	// admits fragments and runs (sixlowpan.AppendFragments panics on a
	// datagram its headers cannot describe — that used to be how 21 and
	// up were refused, mid-run).
	edge := `{"name":"edge","topology":{"kind":"chain","nodes":2},"net":{"seg_frames":` + strconv.Itoa(maxSegFrames) +
		`},` + flows + `,"warmup":"1s","duration":"2s"}`
	specs, err := ParseSpecs([]byte(edge))
	if err != nil {
		t.Fatalf("seg_frames %d (the limit) rejected: %v", maxSegFrames, err)
	}
	sr, err := (&Runner{Workers: 1}).Run(specs[0])
	if err != nil || sr.Runs[0].Flows[0].Bytes == 0 {
		t.Fatalf("seg_frames %d (the limit) moved no data: %v", maxSegFrames, err)
	}
	if datagramSize(maxSegFrames+1) <= sixlowpan.MaxDatagramSize {
		t.Errorf("seg_frames %d would still fit a %d-byte datagram", maxSegFrames+1, sixlowpan.MaxDatagramSize)
	}
}

// TestBuildRunNamesUnroutedNode: a topology that leaves a sleepy node or a
// flow endpoint cut off from the border router is a build error naming
// the node (for a leaf, stack.MakeSleepyLeaf's own error, wrapped), not a
// panic or a silent 0 kb/s run. Validate
// keeps such specs out, so the disconnected chain is built unvalidated.
func TestBuildRunNamesUnroutedNode(t *testing.T) {
	islands := func() *Spec {
		return &Spec{
			Name:     "islands",
			Topology: TopologySpec{Kind: TopoChain, Nodes: 3, Spacing: -5},
			Flows:    []FlowSpec{{From: NodeID(2), To: NodeID(0)}},
		}
	}
	flowOnly := islands()
	sleepy := islands()
	sleepy.Nodes = []NodeSpec{{ID: 1, Sleepy: true}}
	for want, spec := range map[string]*Spec{
		"flow endpoint 2": flowOnly,
		"sleepy node 1":   sleepy,
	} {
		_, err := (&Runner{}).buildRun(spec.withDefaults(), 1)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "has no route to the border router") {
			t.Fatalf("err = %v, want %q named as unrouted", err, want)
		}
	}
}

// TestZeroDurationsHonored pins the zero-vs-unset rules: an explicit
// zero warmup measures from t=0; defaults only replace meaningless zeros
// (the measurement window, the sampling interval).
func TestZeroDurationsHonored(t *testing.T) {
	s := twinMixed(1)
	s.Warmup = 0
	s.Duration = 0
	d := s.withDefaults()
	if d.Warmup != 0 {
		t.Fatalf("zero warmup replaced with %v", d.Warmup.D())
	}
	if d.Duration == 0 {
		t.Fatal("zero-length measurement window kept")
	}
	s.Flows[0].Pattern = PatternAnemometer // interval omitted → 1s
	d = s.withDefaults()
	if got := d.Flows[0].Interval; got != Duration(sim.Second) {
		t.Fatalf("anemometer interval default not applied: %v", got.D())
	}
}

// protoTelemetry builds a mixed-protocol telemetry spec: one TCP, one
// CoAP CON, and one raw-UDP anemometer flow from three chain nodes to
// the wired host.
func protoTelemetry(seeds ...int64) *Spec {
	conf := true
	return &Spec{
		Name:     "proto-telemetry",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 4},
		Flows: []FlowSpec{
			{Label: "tcp", From: NodeID(1), To: Host(), Pattern: PatternAnemometer, Batch: 4},
			{Label: "coap", From: NodeID(2), To: Host(), Protocol: "coap", Confirmable: &conf, Batch: 4},
			{Label: "udp", From: NodeID(3), To: Host(), Protocol: "udp", Batch: 4},
		},
		Warmup:   Duration(5 * sim.Second),
		Duration: Duration(40 * sim.Second),
		Seeds:    seeds,
	}
}

// TestProtocolFlows pins the multi-protocol drivers end to end: every
// flow delivers, carries its protocol label, and reports the telemetry
// metrics (delivery ratio, latency percentiles).
func TestProtocolFlows(t *testing.T) {
	sr, err := (&Runner{}).Run(protoTelemetry(11))
	if err != nil {
		t.Fatal(err)
	}
	run := sr.Runs[0]
	wantProto := []string{"tcp", "coap", "udp"}
	for i, fl := range run.Flows {
		if fl.Protocol != wantProto[i] {
			t.Fatalf("flow %d protocol = %q, want %q", i, fl.Protocol, wantProto[i])
		}
		if fl.Pattern != PatternAnemometer {
			t.Fatalf("flow %d pattern = %q (non-TCP flows default to anemometer)", i, fl.Pattern)
		}
		if fl.Generated == 0 || fl.Delivered == 0 {
			t.Fatalf("flow %s: generated=%d delivered=%d", fl.Label, fl.Generated, fl.Delivered)
		}
		if fl.DeliveryRatio <= 0 || fl.DeliveryRatio > 1 {
			t.Fatalf("flow %s: delivery ratio %v", fl.Label, fl.DeliveryRatio)
		}
		if fl.LatencyP50ms <= 0 || fl.LatencyP99ms < fl.LatencyP50ms {
			t.Fatalf("flow %s: latency p50=%v p99=%v", fl.Label, fl.LatencyP50ms, fl.LatencyP99ms)
		}
		if fl.GoodputKbps <= 0 {
			t.Fatalf("flow %s: goodput %v", fl.Label, fl.GoodputKbps)
		}
	}
	// Reliability machinery maps per protocol: TCP has an RTT estimate,
	// UDP has no retransmissions by construction.
	if run.Flows[0].SRTTms <= 0 {
		t.Fatal("tcp flow has no SRTT")
	}
	if run.Flows[2].Retransmits != 0 || run.Flows[2].Timeouts != 0 {
		t.Fatalf("udp flow reports reliability machinery: %+v", run.Flows[2])
	}
}

// TestProtocolFlowsSerialParallelIdentical mirrors the TCP determinism
// contract for the UDP/CoAP drivers: bit-identical runs and aggregates
// whatever the worker-pool size.
func TestProtocolFlowsSerialParallelIdentical(t *testing.T) {
	spec := protoTelemetry(1, 2, 3)
	serial, err := (&Runner{Workers: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 4}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatalf("serial and parallel runs differ:\nserial:   %+v\nparallel: %+v",
			serial.Runs, parallel.Runs)
	}
	if !reflect.DeepEqual(serial.Agg, parallel.Agg) {
		t.Fatalf("aggregates differ:\nserial:   %+v\nparallel: %+v", serial.Agg, parallel.Agg)
	}
	if reflect.DeepEqual(serial.Runs[0].Flows, serial.Runs[1].Flows) {
		t.Fatal("different seeds produced identical flow results")
	}
}

// TestCoAPConRecoversNonLoses pins the reliability split under §9.4
// injected loss: confirmable CoAP retransmits through it while the
// nonconfirmable baseline silently drops readings.
func TestCoAPConRecoversNonLoses(t *testing.T) {
	mk := func(name string, confirmable bool) *Spec {
		c := confirmable
		return &Spec{
			Name:     name,
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Net:      NetSpec{InjectedLoss: 0.3},
			Flows: []FlowSpec{{
				From: NodeID(1), To: Host(), Protocol: "coap", Confirmable: &c,
				Interval: Duration(500 * sim.Millisecond),
			}},
			Warmup:   Duration(10 * sim.Second),
			Duration: Duration(2 * sim.Minute),
			Seeds:    []int64{5},
		}
	}
	res, err := (&Runner{}).RunAll([]*Spec{mk("con", true), mk("non", false)})
	if err != nil {
		t.Fatal(err)
	}
	con := res[0].Runs[0].Flows[0]
	non := res[1].Runs[0].Flows[0]
	if con.DeliveryRatio < 0.95 {
		t.Fatalf("CON delivery %v under 30%% injected loss, want ≈1 (retransmissions)", con.DeliveryRatio)
	}
	if con.Retransmits == 0 {
		t.Fatal("CON flow recorded no retransmissions under loss")
	}
	if non.DeliveryRatio > 0.9 {
		t.Fatalf("NON delivery %v, want visible loss", non.DeliveryRatio)
	}
	if non.Retransmits != 0 {
		t.Fatalf("NON flow retransmitted (%d)", non.Retransmits)
	}
}

// TestSweepOverrides pins the per-cell override contract: matching
// cells get the set-block after the axis values, non-matching cells are
// untouched, numeric when-values are accepted, and the whole thing
// round-trips through JSON.
func TestSweepOverrides(t *testing.T) {
	spec := &Spec{
		Name:     "grid",
		Topology: TopologySpec{Kind: TopoChain},
		Flows:    []FlowSpec{{From: End(), To: NodeID(0)}},
		Sweep: &Sweep{
			Hops: []int{1, 3, 4},
			Overrides: []Override{{
				When: OverrideWhen{"hops": "4"},
				Set:  OverrideSet{WindowSegs: 6},
			}},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	cells := spec.Expand()
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	for i, c := range cells[:2] {
		if c.Net.WindowSegs != 0 {
			t.Fatalf("cell %d caught the override: %+v", i, c)
		}
	}
	if c := cells[2]; c.Net.WindowSegs != 6 {
		t.Fatalf("4-hop cell missed the override: window=%d", c.Net.WindowSegs)
	}
	// The base spec stays untouched.
	if spec.Net.WindowSegs != 0 {
		t.Fatal("override mutated the base spec")
	}
	// JSON round-trip, including the ISSUE's bare-number when-form.
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed[0], spec) {
		t.Fatalf("override round trip mismatch:\n in:  %+v\n out: %+v", spec.Sweep, parsed[0].Sweep)
	}
	raw := `{"name":"g","topology":{"kind":"chain"},"flows":[{"from":"end","to":0}],
		"sweep":{"hops":[1,4],"overrides":[{"when":{"hops":4},"set":{"window_segs":6}}]}}`
	parsed, err = ParseSpecs([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if c := parsed[0].Expand()[1]; c.Net.WindowSegs != 6 {
		t.Fatalf("numeric when-value not matched: %+v", c)
	}
	// Validation rejects overrides conditioned on unpopulated axes and
	// empty when-blocks.
	bad := *spec
	bad.Sweep = &Sweep{Hops: []int{1}, Overrides: []Override{{
		When: OverrideWhen{"per": "7%"}, Set: OverrideSet{WindowSegs: 2},
	}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "does not populate") {
		t.Fatalf("unpopulated-axis override accepted: %v", err)
	}
	bad.Sweep = &Sweep{Hops: []int{1}, Overrides: []Override{{Set: OverrideSet{WindowSegs: 2}}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "empty when-block") {
		t.Fatalf("empty when-block accepted: %v", err)
	}
	// A when-value no cell will ever take ("04", "40 ms") is an error,
	// not a silently inert patch.
	bad.Sweep = &Sweep{Hops: []int{1, 4}, Overrides: []Override{{
		When: OverrideWhen{"hops": "04"}, Set: OverrideSet{WindowSegs: 6},
	}}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "never takes value") {
		t.Fatalf("mistyped when-value accepted: %v", err)
	}
}

// TestDCSampleAndIdleWindow pins the two new instruments: dc_sample
// produces one mean-duty-cycle sample per period, and idle_window
// freezes the window-rate metrics at the stop instant (a run with an
// idle phase reports the same goodput as one without) while filling
// IdleRadioDC.
func TestDCSampleAndIdleWindow(t *testing.T) {
	mk := func(idle bool) *Spec {
		s := &Spec{
			Name:     "instruments",
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Nodes: []NodeSpec{{
				ID: 1, Sleepy: true, Adaptive: true,
				MinInterval: Duration(20 * sim.Millisecond),
				MaxInterval: Duration(500 * sim.Millisecond),
			}},
			Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
			Warmup:   Duration(5 * sim.Second),
			Duration: Duration(30 * sim.Second),
			DCSample: Duration(10 * sim.Second),
			Seeds:    []int64{17},
		}
		if idle {
			s.IdleSettle = Duration(5 * sim.Second)
			s.IdleWindow = Duration(20 * sim.Second)
		}
		return s
	}
	res, err := (&Runner{}).RunAll([]*Spec{mk(false), mk(true)})
	if err != nil {
		t.Fatal(err)
	}
	plain, idle := res[0].Runs[0], res[1].Runs[0]
	if len(plain.DCSamples) != 3 {
		t.Fatalf("dc samples = %d, want 3 (30s / 10s)", len(plain.DCSamples))
	}
	for i, dc := range plain.DCSamples {
		if dc <= 0 || dc > 1 {
			t.Fatalf("dc sample %d = %v", i, dc)
		}
	}
	if plain.Flows[0].GoodputKbps != idle.Flows[0].GoodputKbps {
		t.Fatalf("idle phase leaked into goodput: %v vs %v",
			plain.Flows[0].GoodputKbps, idle.Flows[0].GoodputKbps)
	}
	if plain.Flows[0].Bytes != idle.Flows[0].Bytes {
		t.Fatalf("idle phase leaked into bytes: %d vs %d",
			plain.Flows[0].Bytes, idle.Flows[0].Bytes)
	}
	if plain.Flows[0].IdleRadioDC != 0 {
		t.Fatal("IdleRadioDC set without an idle window")
	}
	// The adaptive sleepy leaf backs off once traffic stops, so its
	// idle duty cycle collapses below the loaded duty cycle (the first
	// dc_sample, taken mid-transfer; RadioDC itself is post-reset here
	// because the sampler resets the meter at each boundary).
	loaded := plain.DCSamples[0]
	if got := idle.Flows[0].IdleRadioDC; got <= 0 || got >= loaded {
		t.Fatalf("idle duty cycle %v, want inside (0, %v)", got, loaded)
	}
}

// TestSerialParallelIdentical is the determinism contract: the same
// spec over the same seeds produces bit-identical per-run results and
// aggregates whether the runner uses one worker or many.
func TestSerialParallelIdentical(t *testing.T) {
	spec := twinMixed(1, 2, 3, 4)
	serial, err := (&Runner{Workers: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: 4}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Runs, parallel.Runs) {
		t.Fatalf("serial and parallel runs differ:\nserial:   %+v\nparallel: %+v",
			serial.Runs, parallel.Runs)
	}
	if !reflect.DeepEqual(serial.Agg, parallel.Agg) {
		t.Fatalf("aggregates differ:\nserial:   %+v\nparallel: %+v", serial.Agg, parallel.Agg)
	}
	// And a repeat parallel run reproduces itself.
	again, err := (&Runner{Workers: 3}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallel.Runs, again.Runs) {
		t.Fatal("parallel runs are not reproducible")
	}
	// Seeds must actually matter: two different channel realizations
	// should not be byte-identical.
	if reflect.DeepEqual(serial.Runs[0].Flows, serial.Runs[1].Flows) {
		t.Fatal("different seeds produced identical flow results")
	}
}

// TestMixedVariantFairness regression-pins the twin-leaf w=7 paced-BBR
// vs NewReno fairness question: both flows make progress and the Jain
// index stays inside a tolerance band around the measured baseline.
func TestMixedVariantFairness(t *testing.T) {
	sr, err := (&Runner{}).Run(twinMixed(301, 302, 303))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range sr.Runs {
		if len(run.Flows) != 2 {
			t.Fatalf("seed %d: flows = %d", run.Seed, len(run.Flows))
		}
		for _, fl := range run.Flows {
			if fl.GoodputKbps <= 0 {
				t.Fatalf("seed %d: flow %s starved (%.2f kb/s)", run.Seed, fl.Label, fl.GoodputKbps)
			}
			if fl.WindowSegs != 7 {
				t.Fatalf("flow %s window = %d segs, want 7", fl.Label, fl.WindowSegs)
			}
		}
	}
	// Tolerance band around the pinned baseline (measured at this
	// schedule: jain_mean 0.972, jain_min 0.923 — pacing keeps the w=7
	// twin-leaf fair, the ROADMAP's inter-variant fairness question).
	// Drift below the band means one variant starves the other; use a
	// generous floor so only real regressions trip it.
	if sr.Agg.JainMean < 0.85 || sr.Agg.JainMean > 1.0001 {
		t.Fatalf("mixed-variant Jain mean %.3f outside [0.85, 1.0] (baseline 0.972)", sr.Agg.JainMean)
	}
	if sr.Agg.JainMin < 0.80 {
		t.Fatalf("mixed-variant Jain min %.3f < 0.80 (baseline 0.923)", sr.Agg.JainMin)
	}
}

// TestExampleSpecRuns keeps the shipped example runnable: the JSON
// parses, validates, and (shortened) produces two flows plus a Jain
// index.
func TestExampleSpecRuns(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "twinleaf_mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("specs = %d", len(specs))
	}
	spec := specs[0]
	if spec.Net.WindowSegs != 7 || len(spec.Flows) != 2 {
		t.Fatalf("example drifted: %+v", spec)
	}
	spec.Warmup = Duration(5 * sim.Second)
	spec.Duration = Duration(20 * sim.Second)
	spec.Seeds = spec.Seeds[:1]
	sr, err := (&Runner{}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := sr.Runs[0]
	if run.Jain <= 0 || run.Jain > 1.0001 {
		t.Fatalf("jain = %v", run.Jain)
	}
	if run.Flows[0].Variant != "bbr" || run.Flows[1].Variant != "newreno" {
		t.Fatalf("variants = %s/%s", run.Flows[0].Variant, run.Flows[1].Variant)
	}
	// The other example file parses too.
	data, err = os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", "chain_retrydelay.json"))
	if err != nil {
		t.Fatal(err)
	}
	if specs, err = ParseSpecs(data); err != nil || len(specs) != 2 {
		t.Fatalf("chain_retrydelay: specs=%d err=%v", len(specs), err)
	}
}

// TestAllExampleSpecsLoad keeps every checked-in spec loadable: each
// file under examples/scenarios and examples/scenarios/paper parses,
// validates, and expands (CI additionally runs them all at a short
// duration).
func TestAllExampleSpecsLoad(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	paper, _ := filepath.Glob(filepath.Join(dir, "paper", "*.json"))
	if len(files) < 12 || len(paper) < 19 {
		t.Fatalf("example specs missing: %v %v", files, paper)
	}
	files = append(files, paper...)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		specs, err := ParseSpecs(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, s := range specs {
			if cells := s.Expand(); len(cells) == 0 {
				t.Fatalf("%s: spec %q expanded to nothing", f, s.Name)
			}
		}
	}
	// And the Fig. 6 sweep actually runs shortened: one grid, one result
	// per cell, every cell alive.
	data, err := os.ReadFile(filepath.Join(dir, "paper", "fig6.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseSpecs(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		s.Warmup = Duration(2 * sim.Second)
		s.Duration = Duration(5 * sim.Second)
		s.Seeds = s.Seeds[:1]
	}
	res, err := (&Runner{Workers: 4}).RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 18 { // {1, 3} hops × 9 retry delays
		t.Fatalf("fig6 cells = %d, want 18", len(res))
	}
	for _, sr := range res {
		if g := sr.Runs[0].Flows[0].GoodputKbps; g <= 0 {
			t.Fatalf("cell %s: goodput %.2f", sr.Spec.Name, g)
		}
	}
}

// TestPatterns exercises the bulk and anemometer traffic patterns and
// the host endpoint on one chain.
func TestPatterns(t *testing.T) {
	mk := func(pattern string, f func(*FlowSpec)) *Spec {
		fs := FlowSpec{From: NodeID(1), To: Host(), Variant: "newreno", Pattern: pattern}
		if f != nil {
			f(&fs)
		}
		return &Spec{
			Name:     "pattern-" + pattern,
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Flows:    []FlowSpec{fs},
			Warmup:   Duration(5 * sim.Second),
			Duration: Duration(30 * sim.Second),
			Seeds:    []int64{7},
		}
	}
	results, err := (&Runner{}).RunAll([]*Spec{
		mk(PatternBulk, nil),
		mk(PatternAnemometer, func(f *FlowSpec) { f.Batch = 4 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	bulk := results[0].Runs[0].Flows[0].GoodputKbps
	anem := results[1].Runs[0].Flows[0].GoodputKbps
	if bulk <= 0 || anem <= 0 {
		t.Fatalf("goodputs: bulk=%.1f anem=%.1f", bulk, anem)
	}
	// The anemometer generates 82 B/s.
	if anem > 2 {
		t.Fatalf("anemometer %.1f kb/s, want ≈0.7 (1 Hz × 82 B readings)", anem)
	}
}

// TestPerFlowWindowAndPacing pins the per-flow config threading: a w=8
// flow outruns a w=1 flow on a clean one-hop link, and each flow's
// variant — the one thing that decides pacing — reaches its connection
// config.
func TestPerFlowWindowAndPacing(t *testing.T) {
	mkWin := func(name string, w int) *Spec {
		return &Spec{
			Name:     name,
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0), WindowSegs: w}},
			Warmup:   Duration(5 * sim.Second),
			Duration: Duration(30 * sim.Second),
			Seeds:    []int64{11},
		}
	}
	results, err := (&Runner{}).RunAll([]*Spec{mkWin("w1", 1), mkWin("w8", 8)})
	if err != nil {
		t.Fatal(err)
	}
	w1 := results[0].Runs[0].Flows[0]
	w8 := results[1].Runs[0].Flows[0]
	if w1.WindowSegs != 1 || w8.WindowSegs != 8 {
		t.Fatalf("windows = %d/%d, want 1/8", w1.WindowSegs, w8.WindowSegs)
	}
	if w8.GoodputKbps < w1.GoodputKbps*1.5 {
		t.Fatalf("w=8 (%.1f kb/s) did not outrun w=1 (%.1f kb/s)", w8.GoodputKbps, w1.GoodputKbps)
	}

	// Whether a flow paces is its variant's business alone: the BBR flow's
	// algorithm is a cc.Pacer, the NewReno flow's is not.
	rc, err := (&Runner{}).buildRun(twinMixed(5).withDefaults(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false} {
		cfg, _, err := rc.tcpConfigs(rc.flows[i].spec)
		if err != nil {
			t.Fatal(err)
		}
		alg, err := cc.New(cfg.Variant, cc.Params{InitialWindow: cfg.MSS})
		if err != nil {
			t.Fatal(err)
		}
		if _, paces := alg.(cc.Pacer); paces != want {
			t.Fatalf("flow %d (%s): paces = %v, want %v", i, cfg.Variant, paces, want)
		}
	}
}

// rewritten applies rw to spec and fails the test on an error.
func rewritten(t *testing.T, rw Rewrite, spec *Spec) []*Spec {
	t.Helper()
	cells, _, err := rw.Apply([]*Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// TestEmptyVariantKeepsDefault pins the -variant contract: a flow with
// no variant gets Rewrite.Variant instead of collapsing to NewReno
// through cc.Parse(""), and a flow's own variant still wins.
func TestEmptyVariantKeepsDefault(t *testing.T) {
	spec := &Spec{
		Name:     "default-variant",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows: []FlowSpec{
			{From: NodeID(1), To: NodeID(0)},                     // gets cubic
			{From: NodeID(0), To: NodeID(1), Variant: "newreno"}, // explicit override
		},
		Warmup:   Duration(5 * sim.Second),
		Duration: Duration(5 * sim.Second),
		Seeds:    []int64{3},
	}
	res, err := (&Runner{Workers: 1}).RunAll(rewritten(t, Rewrite{Variant: cc.Cubic}, spec))
	if err != nil {
		t.Fatal(err)
	}
	if v := res[0].Runs[0].Flows[0].Variant; v != "cubic" {
		t.Fatalf("defaulted flow variant = %q, want cubic", v)
	}
	if v := res[0].Runs[0].Flows[1].Variant; v != "newreno" {
		t.Fatalf("explicit flow variant = %q, want newreno", v)
	}
	if spec.Flows[0].Variant != "" {
		t.Fatalf("Apply rewrote its input: flow variant %q", spec.Flows[0].Variant)
	}
	sr, err := (&Runner{Workers: 1}).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v := sr.Runs[0].Flows[0].Variant; v != "newreno" {
		t.Fatalf("no rewrite: flow variant = %q, want the paper's newreno", v)
	}
	// Every TCP flow naming its own variant leaves -variant unused.
	spec.Flows[0].Variant = "bbr"
	if _, unused, err := (Rewrite{Variant: cc.Cubic}).Apply([]*Spec{spec}); err != nil || !reflect.DeepEqual(unused, []string{"variant"}) {
		t.Fatalf("unused = %v (err %v), want [variant]", unused, err)
	}
}

// TestRunnerWindowDefault is the -window analogue: Rewrite.WindowSegs
// replaces the paper's 4 segments only where the spec leaves
// net.window_segs unset.
func TestRunnerWindowDefault(t *testing.T) {
	mk := func(netWindow int) *Spec {
		return &Spec{
			Name:     "default-window",
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Net:      NetSpec{WindowSegs: netWindow},
			Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
			Warmup:   Duration(2 * sim.Second),
			Duration: Duration(5 * sim.Second),
			Seeds:    []int64{3},
		}
	}
	for _, c := range []struct {
		name      string
		rw        Rewrite
		netWindow int
		want      int
	}{
		{"paper default", Rewrite{}, 0, 4},
		{"rewritten default", Rewrite{WindowSegs: 8}, 0, 8},
		{"spec wins over the rewrite", Rewrite{WindowSegs: 8}, 2, 2},
	} {
		res, err := (&Runner{Workers: 1}).RunAll(rewritten(t, c.rw, mk(c.netWindow)))
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].Runs[0].Flows[0].WindowSegs; got != c.want {
			t.Fatalf("%s: window = %d segments, want %d", c.name, got, c.want)
		}
	}
}

// TestRunnerWindowBounded: the per-connection buffer limit Validate puts
// on a spec's window holds for the window a Rewrite supplies too, at the
// cell's own segment size. One segment past it is a *WindowError naming
// the window and the limit; the limit itself passes. A spec's own
// window_segs, which wins over the rewrite's, is checked by its key as
// before.
func TestRunnerWindowBounded(t *testing.T) {
	spec := &Spec{
		Name:     "runner-window",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
		Duration: Duration(sim.Second),
	}
	for _, frames := range []int{0, maxSegFrames} { // 0: the default 5-frame segments
		spec.Net.SegFrames = frames
		segFrames := max(frames, 5)
		limit := maxConnBuf / phy.MaxMACPayload / segFrames
		_, _, err := Rewrite{WindowSegs: limit + 1}.Apply([]*Spec{spec})
		var we *WindowError
		if !errors.As(err, &we) || we.Window != limit+1 || we.SegFrames != segFrames || we.Limit != limit ||
			!strings.Contains(err.Error(), "window of "+strconv.Itoa(limit+1)) ||
			!strings.Contains(err.Error(), "limit at seg_frames "+strconv.Itoa(segFrames)+" is "+strconv.Itoa(limit)) {
			t.Fatalf("rewritten window %d at seg_frames %d: err = %v, want a WindowError naming the limit %d", limit+1, segFrames, err, limit)
		}
		if _, _, err := (Rewrite{WindowSegs: limit}).Apply([]*Spec{spec}); err != nil {
			t.Fatalf("rewritten window %d (the limit) at seg_frames %d: %v", limit, segFrames, err)
		}
	}
	spec.Net.SegFrames, spec.Net.WindowSegs = 0, maxConnBuf/phy.MaxMACPayload/5+1
	var we *WindowError
	if err := spec.Validate(); err == nil || errors.As(err, &we) || !strings.Contains(err.Error(), "net: window_segs") {
		t.Fatalf("spec window over the limit: err = %v, want the net.window_segs error", err)
	}
}

// TestConcurrentRunnersKeepTheirDefaults runs two differently rewritten
// specs through two Runners at once in one process (meaningful under
// -race): each Result must equal the same rewrite's solo run. With the
// transport defaults in package variables this could not even be
// written down.
func TestConcurrentRunnersKeepTheirDefaults(t *testing.T) {
	spec := func() *Spec {
		s := twinMixed(1, 2)
		s.Net.WindowSegs = 0
		s.Flows[0].Variant, s.Flows[1].Variant = "", ""
		s.Duration = Duration(15 * sim.Second)
		return s
	}
	rewrites := []Rewrite{
		{Variant: cc.Cubic, WindowSegs: 8},
		{Variant: cc.Westwood},
	}
	run := func(rw Rewrite) ([]*SpecResult, error) {
		return (&Runner{Workers: 2}).RunAll(rewritten(t, rw, spec()))
	}
	solo := make([][]*SpecResult, len(rewrites))
	for i, rw := range rewrites {
		res, err := run(rw)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}
	if reflect.DeepEqual(solo[0][0].Runs, solo[1][0].Runs) {
		t.Fatal("the two rewrites did not change the runs")
	}
	together := make([][]*SpecResult, len(rewrites))
	errs := make([]error, len(rewrites))
	var wg sync.WaitGroup
	for i, rw := range rewrites {
		i, rw := i, rw
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = run(rw)
		}()
	}
	wg.Wait()
	for i, rw := range rewrites {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(solo[i][0].Runs, together[i][0].Runs) {
			t.Fatalf("rewrite %d (%s): concurrent runs differ from its solo runs", i, rw.Variant)
		}
		if v := together[i][0].Runs[0].Flows[0].Variant; v != string(rw.Variant) {
			t.Fatalf("rewrite %d: flow variant = %q, want %q", i, v, rw.Variant)
		}
	}
}

// TestSleepyNodeRole checks the duty-cycle role: the flow runs uplink
// from the leaf, so FlowResult.RadioDC reports the leaf's radio — which
// must collapse once the NodeSpec makes it sleepy, while an always-on
// leaf idles at 100%.
func TestSleepyNodeRole(t *testing.T) {
	mk := func(name string, sleepy bool) *Spec {
		s := &Spec{
			Name:     name,
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Flows: []FlowSpec{{
				From: NodeID(1), To: NodeID(0),
				Pattern: PatternAnemometer, Interval: Duration(2 * sim.Second),
			}},
			Warmup:   Duration(5 * sim.Second),
			Duration: Duration(60 * sim.Second),
			Seeds:    []int64{21},
		}
		if sleepy {
			s.Nodes = []NodeSpec{{
				ID: 1, Sleepy: true,
				SleepInterval: Duration(500 * sim.Millisecond),
			}}
		}
		return s
	}
	results, err := (&Runner{}).RunAll([]*Spec{mk("awake", false), mk("sleepy", true)})
	if err != nil {
		t.Fatal(err)
	}
	awake := results[0].Runs[0].Flows[0]
	sleepy := results[1].Runs[0].Flows[0]
	if awake.GoodputKbps <= 0 || sleepy.GoodputKbps <= 0 {
		t.Fatalf("goodputs: awake=%.2f sleepy=%.2f", awake.GoodputKbps, sleepy.GoodputKbps)
	}
	if awake.RadioDC < 0.95 {
		t.Fatalf("always-on leaf duty cycle = %.2f%%, want ≈100%%", awake.RadioDC*100)
	}
	if sleepy.RadioDC > awake.RadioDC*0.5 {
		t.Fatalf("sleepy leaf duty cycle %.2f%% did not collapse (always-on %.2f%%)",
			sleepy.RadioDC*100, awake.RadioDC*100)
	}
}

func TestOutputFormats(t *testing.T) {
	sr, err := (&Runner{}).Run(twinMixed(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, []*SpecResult{sr}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	// Header + 2 seeds × 2 flows.
	if len(lines) != 1+4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csvBuf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,seed,flow,variant") {
		t.Fatalf("csv header: %s", lines[0])
	}
	var jsonBuf bytes.Buffer
	if err := WriteJSON(&jsonBuf, []*SpecResult{sr}); err != nil {
		t.Fatal(err)
	}
	var decoded []*SpecResult
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 || len(decoded[0].Runs) != 2 {
		t.Fatalf("json round trip: %+v", decoded)
	}
	if s := sr.Summary(); !strings.Contains(s, "jain") || !strings.Contains(s, "bbr") {
		t.Fatalf("summary missing fields:\n%s", s)
	}
}
