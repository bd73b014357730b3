package scenario

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tcplp/internal/obs"
	"tcplp/internal/sim"
)

// obsSpec is a short anemometer run over a 2-hop chain: small enough to
// execute in milliseconds, busy enough to exercise every layer hook.
func obsSpec() *Spec {
	return &Spec{
		Name:     "obs-probe",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 3},
		Flows: []FlowSpec{{
			Label: "anem", From: NodeID(2), To: NodeID(0), Port: 80,
			Pattern:  PatternAnemometer,
			Interval: Duration(500 * sim.Millisecond), Batch: 2,
		}},
		Warmup:   Duration(2 * sim.Second),
		Duration: Duration(20 * sim.Second),
	}
}

// runOne runs one seed of spec through a Runner, as RunAll's workers do.
func runOne(spec *Spec, seed int64, oc *ObsConfig) (Result, error) {
	c := *spec
	c.Seeds = []int64{seed}
	sr, err := (&Runner{Workers: 1, Obs: oc}).Run(&c)
	if err != nil {
		return Result{}, err
	}
	return sr.Runs[0], nil
}

// TestObsBitIdentity pins the tentpole contract: attaching pure sinks
// (NDJSON events, pcap frames, the flight recorder ring) must not
// change a run's Result in any field — hooks read state, never draw
// RNG or schedule events. The metrics sampler and stall checker are
// deliberately left off here; those schedule engine events and are
// documented to change Result.Events (only).
func TestObsBitIdentity(t *testing.T) {
	base, err := runOne(obsSpec(), 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	var events, frames bytes.Buffer
	pw, err := obs.NewPcapWriter(&frames)
	if err != nil {
		t.Fatal(err)
	}
	oc := &ObsConfig{
		Events: obs.NewNDJSONWriter(&events),
		Pcap:   pw,
		Flight: &FlightConfig{}, // no stall window, no dump writer
	}
	traced, err := runOne(obsSpec(), 42, oc)
	if err != nil {
		t.Fatal(err)
	}
	bj, _ := json.Marshal(base)
	tj, _ := json.Marshal(traced)
	if !bytes.Equal(bj, tj) {
		t.Errorf("tracing perturbed the run:\ndisabled: %s\nenabled:  %s", bj, tj)
	}
	if events.Len() == 0 {
		t.Error("no NDJSON events captured")
	}
	if frames.Len() <= 60 { // SHB+IDB only
		t.Error("no frames captured to pcapng")
	}
	// Every captured line is valid JSON carrying the run tag.
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if m["run"] != "obs-probe" || m["seed"] != 42.0 {
			t.Fatalf("line missing run/seed tag: %q", line)
		}
	}
}

// TestObsLayersAlwaysPopulated: Result.Layers is computed from plain
// counters, so it is present and identical with tracing on or off.
func TestObsLayersAlwaysPopulated(t *testing.T) {
	res, err := runOne(obsSpec(), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Layers) == 0 {
		t.Fatal("Result.Layers empty on an untraced run")
	}
	if res.layer("phy", "frames_sent") <= 0 {
		t.Errorf("phy.frames_sent = %v, want > 0", res.layer("phy", "frames_sent"))
	}
	if res.layer("tcp", "segs_in") <= 0 {
		t.Errorf("tcp.segs_in = %v, want > 0", res.layer("tcp", "segs_in"))
	}
}

// TestObsStallDump forces a black-hole flow — every packet the border
// router forwards is dropped — and checks the stall checker dumps the
// flow's ring mid-run with the stall reason.
func TestObsStallDump(t *testing.T) {
	spec := &Spec{
		Name:     "obs-stall",
		Topology: TopologySpec{Kind: TopoStar, Nodes: 3},
		Net:      NetSpec{InjectedLoss: 0.999},
		Flows: []FlowSpec{{
			Label: "doomed", From: NodeID(1), To: Host(),
			Pattern:  PatternAnemometer,
			Interval: Duration(1 * sim.Second), Batch: 2,
		}},
		Warmup:   Duration(1 * sim.Second),
		Duration: Duration(30 * sim.Second),
	}
	var dumps bytes.Buffer
	oc := &ObsConfig{Flight: &FlightConfig{
		StallWindow: 5 * sim.Second,
		Out:         &dumps,
	}}
	if _, err := runOne(spec, 3, oc); err != nil {
		t.Fatal(err)
	}
	out := dumps.String()
	if !strings.Contains(out, "flight recorder") || !strings.Contains(out, "stalled: no progress") {
		t.Fatalf("stall dump missing, got:\n%s", out)
	}
	if !strings.Contains(out, `flow "doomed"`) {
		t.Errorf("dump not attributed to the flow:\n%s", out)
	}
	if n := strings.Count(out, "=== flight recorder"); n != 1 {
		t.Errorf("black-hole flow dumped %d times, want once", n)
	}
}

// TestObsIdleFlowNotStalled: a healthy sensor that samples less often
// than the stall window spends most of every window with nothing
// outstanding. That is idle, not stalled, and must dump nothing.
func TestObsIdleFlowNotStalled(t *testing.T) {
	spec := obsSpec()
	spec.Flows[0].Interval = Duration(5 * sim.Second)
	spec.Flows[0].Batch = 1
	spec.Duration = Duration(40 * sim.Second)
	var dumps bytes.Buffer
	oc := &ObsConfig{Flight: &FlightConfig{
		StallWindow: 2 * sim.Second,
		Out:         &dumps,
	}}
	res, err := runOne(spec, 42, oc)
	if err != nil {
		t.Fatal(err)
	}
	if f := res.Flows[0]; f.Delivered < 6 || f.DeliveryRatio < 0.9 {
		t.Fatalf("flow delivered %d readings (ratio %.2f); the healthy-flow premise is broken",
			f.Delivered, f.DeliveryRatio)
	}
	if dumps.Len() != 0 {
		t.Errorf("idle healthy flow was dumped as stalled:\n%s", truncate(dumps.String(), 600))
	}
}

// TestObsLowDeliveryDump: with the stall checker off, a flow ending the
// run under the delivery threshold dumps at collect time instead.
func TestObsLowDeliveryDump(t *testing.T) {
	spec := &Spec{
		Name:     "obs-lowdeliv",
		Topology: TopologySpec{Kind: TopoStar, Nodes: 3},
		Net:      NetSpec{InjectedLoss: 0.999},
		Flows: []FlowSpec{{
			Label: "doomed", From: NodeID(1), To: Host(),
			Pattern:  PatternAnemometer,
			Interval: Duration(1 * sim.Second), Batch: 2,
		}},
		Warmup:   Duration(1 * sim.Second),
		Duration: Duration(15 * sim.Second),
	}
	var dumps bytes.Buffer
	oc := &ObsConfig{Flight: &FlightConfig{
		DeliveryThreshold: 0.5,
		Out:               &dumps,
	}}
	res, err := runOne(spec, 3, oc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows[0].DeliveryRatio >= 0.5 {
		t.Fatalf("black-hole flow delivered %.3f; test premise broken", res.Flows[0].DeliveryRatio)
	}
	if !strings.Contains(dumps.String(), "delivery ratio") {
		t.Fatalf("low-delivery dump missing, got:\n%s", dumps.String())
	}
}

// TestObsMetricsSampler: the -metrics-interval path emits one "metrics"
// NDJSON record per period of the measurement window.
func TestObsMetricsSampler(t *testing.T) {
	var events bytes.Buffer
	oc := &ObsConfig{
		Events:          obs.NewNDJSONWriter(&events),
		MetricsInterval: 5 * sim.Second,
	}
	if _, err := runOne(obsSpec(), 42, oc); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(events.String(), "\n") {
		if strings.Contains(line, `"type":"metrics"`) {
			n++
		}
	}
	if n != 4 { // 20 s window / 5 s period
		t.Errorf("got %d metrics samples, want 4", n)
	}
}
