package scenario

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"tcplp/internal/obs"
	"tcplp/internal/obs/journey"
	"tcplp/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runJourney executes spec at seed with journey tracing and returns the
// run's result plus the analyzed report.
func runJourney(t *testing.T, spec *Spec, seed int64) (Result, *journey.Report) {
	t.Helper()
	var rep *journey.Report
	oc := &ObsConfig{
		Journey:   true,
		OnJourney: func(name string, s int64, r *journey.Report) { rep = r },
	}
	res, err := runOne(spec, seed, oc)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("journey report never delivered")
	}
	return res, rep
}

// checkConformance asserts the tentpole contract on one report: every
// generated reading terminates delivered, lost with a typed cause, or
// in flight, and delivered attributions telescope exactly.
func checkConformance(t *testing.T, rep *journey.Report) *journey.ConformanceResult {
	t.Helper()
	c := journey.Check(rep)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if c.Generated == 0 {
		t.Fatal("no readings generated; scenario premise broken")
	}
	if c.Delivered+c.Lost+c.InFlight != c.Generated {
		t.Fatalf("readings unaccounted: %d+%d+%d != %d", c.Delivered, c.Lost, c.InFlight, c.Generated)
	}
	return c
}

// TestJourneyBitIdentity pins the observability contract for the new
// subsystem: enabling journey reconstruction must not change any other
// field of the Result — the attribution rides in its own
// omitempty pointer, nil when disabled.
func TestJourneyBitIdentity(t *testing.T) {
	base, err := runOne(obsSpec(), 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, _ := runJourney(t, obsSpec(), 42)
	for i := range traced.Flows {
		if traced.Flows[i].Journey == nil {
			t.Fatal("journey tracing on, but FlowResult.Journey is nil")
		}
		traced.Flows[i].Journey = nil
	}
	bj, _ := json.Marshal(base)
	tj, _ := json.Marshal(traced)
	if !bytes.Equal(bj, tj) {
		t.Errorf("journey tracing perturbed the run:\ndisabled: %s\nenabled:  %s", bj, tj)
	}
	for i := range base.Flows {
		if base.Flows[i].Journey != nil {
			t.Error("untraced run grew a Journey attribution")
		}
	}
}

// TestJourneyConformanceSmoke runs the 2-hop anemometer smoke scenario:
// every reading must reconstruct to a complete span tree, and the
// delivered ones must attribute their full end-to-end latency.
func TestJourneyConformanceSmoke(t *testing.T) {
	res, rep := runJourney(t, obsSpec(), 42)
	c := checkConformance(t, rep)
	if c.Delivered == 0 {
		t.Fatal("smoke run delivered nothing")
	}
	fr := res.Flows[0].Journey
	if fr == nil || fr.Delivered == 0 {
		t.Fatalf("flow journey report missing or empty: %+v", fr)
	}
	if fr.Mean.Total <= 0 {
		t.Errorf("mean total latency %.3f ms, want > 0", fr.Mean.Total)
	}
	// Direct flow: no gateway tier, so those stages must be zero.
	if fr.Mean.Gateway != 0 || fr.Mean.WAN != 0 {
		t.Errorf("direct flow has gateway/wan attribution: %+v", fr.Mean)
	}
	if fr.Mean.Air <= 0 {
		t.Errorf("mean air time %.3f ms, want > 0 (frames were sent)", fr.Mean.Air)
	}
}

// TestJourneyConformanceGatewaySmoke covers the full device → gateway →
// WAN → cloud path, including WAN losses (2% loss, shallow queue).
func TestJourneyConformanceGatewaySmoke(t *testing.T) {
	res, rep := runJourney(t, gwStar(3), 5)
	c := checkConformance(t, rep)
	if c.Delivered == 0 {
		t.Fatal("gateway smoke delivered nothing")
	}
	for cause := range c.LostByCause {
		if cause == "" {
			t.Error("loss recorded with empty cause")
		}
	}
	var sawWan bool
	for _, f := range res.Flows {
		jf := f.Journey
		if jf == nil {
			t.Fatal("gateway flow missing journey attribution")
		}
		if jf.Delivered > 0 && jf.Mean.WAN > 0 {
			sawWan = true
		}
	}
	if !sawWan {
		t.Error("no gateway flow attributed WAN latency")
	}
}

// TestJourneyConformanceCoAPGiveUpAfterDelivery is the regression for a
// misclassification: over a lossy border a CoAP CON request can reach
// the sink while every ACK back is lost, so the client gives up on a
// reading that was in fact delivered. That is one terminal state
// (delivered) plus a sender-side event, and must conform. Several seeds
// because a give-up needs five failed attempts in a row; the test
// insists at least one seed actually hits the case.
func TestJourneyConformanceCoAPGiveUpAfterDelivery(t *testing.T) {
	exercised := 0
	for seed := int64(1); seed <= 6; seed++ {
		spec := &Spec{
			Name:     "coap-lossy-border",
			Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
			Net:      NetSpec{InjectedLoss: 0.10},
			Flows: []FlowSpec{{
				From: NodeID(1), To: Host(), Protocol: "coap",
				Interval: Duration(500 * sim.Millisecond),
			}},
			Warmup:   Duration(10 * sim.Second),
			Duration: Duration(20 * sim.Minute),
		}
		_, rep := runJourney(t, spec, seed)
		c := checkConformance(t, rep)
		if c.Delivered == 0 {
			t.Fatalf("seed %d delivered nothing", seed)
		}
		for _, r := range rep.Readings {
			if r.State == journey.StateDelivered && r.Cause == obs.CauseCoAPGiveUp {
				exercised++
			}
		}
	}
	if exercised == 0 {
		t.Fatal("no seed produced a give-up after delivery; the regression is not exercised")
	}
}

// TestJourneyConformanceCitySlice is the satellite CI check at scale: a
// 200-node random-geometric city slice with a strided telemetry fleet.
func TestJourneyConformanceCitySlice(t *testing.T) {
	if testing.Short() {
		t.Skip("city slice is not a -short test")
	}
	_, rep := runJourney(t, citySpec(200), 1)
	c := checkConformance(t, rep)
	if c.Delivered == 0 {
		t.Fatal("city slice delivered nothing")
	}
	t.Logf("city slice: %d generated, %d delivered, %d lost %v, %d in flight %v",
		c.Generated, c.Delivered, c.Lost, c.LostByCause, c.InFlight, c.InFlightByStage)
}

// TestJourneyFuzzRandomGeometric sweeps seeds over lossy generated
// topologies: whatever the channel does, reconstruction must stay
// complete and exactly attributed.
func TestJourneyFuzzRandomGeometric(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		spec := citySpec(24)
		spec.Net.InjectedLoss = 0.05
		_, rep := runJourney(t, spec, seed)
		c := checkConformance(t, rep)
		if c.Delivered == 0 {
			t.Errorf("seed %d: nothing delivered", seed)
		}
	}
}

// TestJourneyDropEventsCarryCause: every drop-kind event the smoke runs
// emit must carry a typed cause — the taxonomy-completeness check at
// the event level, run over the NDJSON stream.
func TestJourneyDropEventsCarryCause(t *testing.T) {
	dropKinds := map[string]bool{}
	for k := obs.KindUnknown; ; k++ {
		name := k.String()
		if name == "invalid" {
			break
		}
		if k.IsDrop() {
			dropKinds[name] = true
		}
	}
	if len(dropKinds) < 5 {
		t.Fatalf("drop taxonomy suspiciously small: %v", dropKinds)
	}
	for _, spec := range []*Spec{obsSpec(), gwStar(3)} {
		spec.Net.InjectedLoss = 0.1
		var events bytes.Buffer
		oc := &ObsConfig{Events: obs.NewNDJSONWriter(&events)}
		if _, err := runOne(spec, 9, oc); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
			var m map[string]any
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			kind, _ := m["kind"].(string)
			if dropKinds[kind] {
				if cause, _ := m["cause"].(string); cause == "" {
					t.Fatalf("drop event without a cause: %s", line)
				}
			}
		}
	}
}

// TestJourneyEventFiltering covers the -events-layers / -events-flow
// NDJSON filters.
func TestJourneyEventFiltering(t *testing.T) {
	var events bytes.Buffer
	oc := &ObsConfig{
		Events:      obs.NewNDJSONWriter(&events),
		EventLayers: []string{"tcp"},
	}
	if _, err := runOne(obsSpec(), 42, oc); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("layer filter dropped everything")
	}
	for _, line := range lines {
		if strings.Contains(line, `"kind":"phy_`) || strings.Contains(line, `"kind":"mac_`) {
			t.Fatalf("layer filter leaked a non-tcp event: %s", line)
		}
	}

	events.Reset()
	oc = &ObsConfig{
		Events:     obs.NewNDJSONWriter(&events),
		EventFlows: []string{"anem"},
	}
	if _, err := runOne(obsSpec(), 42, oc); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(events.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("flow filter dropped everything")
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		// obsSpec's "anem" flow sources from node 2.
		if n, _ := m["node"].(float64); n != 2 {
			t.Fatalf("flow filter leaked node %v: %s", m["node"], line)
		}
	}
	// An unknown label keeps the filter permissive rather than silent.
	events.Reset()
	oc = &ObsConfig{
		Events:     obs.NewNDJSONWriter(&events),
		EventFlows: []string{"no-such-flow"},
	}
	if _, err := runOne(obsSpec(), 42, oc); err != nil {
		t.Fatal(err)
	}
	if events.Len() == 0 {
		t.Error("unmatched flow label silenced the whole stream")
	}
}

// goldenChainSpec is the golden span-tree scenario: a 3-hop chain
// feeding the gateway tier over a lossy mesh and a lossy, shallow WAN —
// deterministic at a fixed seed, and busy enough to exercise
// retransmission stalls, link retries, and WAN drops.
func goldenChainSpec() *Spec {
	return &Spec{
		Name:     "journey-golden",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 4},
		// Interference produces in-mesh losses (link retries, TCP RTOs);
		// the tiny relay queue forces forwarding drops that only TCP
		// retransmission recovers; the shallow lossy WAN produces
		// cloud-side reading drops.
		Net: NetSpec{Interference: 1, QueueCap: 2},
		Gateway: &GatewaySpec{
			WAN: WANSpec{
				BandwidthKbps: 16,
				RTT:           Duration(100 * sim.Millisecond),
				Loss:          0.05,
				QueueCap:      4,
			},
		},
		Flows: []FlowSpec{{
			Label: "dev", From: NodeID(3), To: Gateway(),
			Pattern:  PatternAnemometer,
			Interval: Duration(250 * sim.Millisecond), Batch: 2,
		}},
		Warmup:   Duration(2 * sim.Second),
		Duration: Duration(20 * sim.Second),
	}
}

// dumpJourneys renders a deterministic one-line-per-reading summary of
// a report — the golden format.
func dumpJourneys(rep *journey.Report) string {
	var sb strings.Builder
	for _, r := range rep.Readings {
		switch r.State {
		case journey.StateDelivered:
			b := &r.Buckets
			fmt.Fprintf(&sb, "seq=%d delivered e2e=%dus app=%d send=%d rtx=%d mesh=%d(bo=%d rt=%d air=%d fwd=%d) gw=%d wan=%d\n",
				r.Seq, int64(b.Total()), int64(b.AppQueue), int64(b.SendWait), int64(b.RtxStall),
				int64(b.Mesh), int64(b.Backoff), int64(b.Retry), int64(b.Air), int64(b.Forward),
				int64(b.Gateway), int64(b.WAN))
		case journey.StateLost:
			fmt.Fprintf(&sb, "seq=%d lost cause=%s\n", r.Seq, r.Cause)
		default:
			fmt.Fprintf(&sb, "seq=%d in-flight stage=%s\n", r.Seq, r.Stage)
		}
	}
	return sb.String()
}

// TestJourneyGoldenChain pins the reconstructed span trees of a lossy
// 3-hop gateway chain to a golden file (-update rewrites it). The run
// is deterministic, so any drift means the journey pipeline changed.
func TestJourneyGoldenChain(t *testing.T) {
	_, rep := runJourney(t, goldenChainSpec(), 2)
	c := checkConformance(t, rep)
	// The premise of the golden scenario: losses actually happened.
	var sawRtx bool
	for _, r := range rep.Readings {
		if r.State == journey.StateDelivered && r.Buckets.RtxStall > 0 {
			sawRtx = true
			break
		}
	}
	if !sawRtx {
		t.Error("golden chain saw no retransmission stalls; raise the loss")
	}
	if c.Lost == 0 {
		t.Error("golden chain lost nothing; raise WAN loss")
	}
	got := dumpJourneys(rep)
	golden := filepath.Join("testdata", "journey_golden_chain.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("journey reconstruction drifted from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s",
			truncate(got, 2000), truncate(string(want), 2000))
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// TestJourneyWaterfallInReport renders the gateway smoke flow's
// waterfall — the human-readable view the README documents.
func TestJourneyWaterfallInReport(t *testing.T) {
	res, _ := runJourney(t, gwStar(2), 5)
	var nodes []int
	for _, f := range res.Flows {
		if f.Journey != nil {
			nodes = append(nodes, f.Journey.Node)
		}
	}
	sort.Ints(nodes)
	if len(nodes) == 0 {
		t.Fatal("no journey attributions")
	}
	w := res.Flows[0].Journey.Waterfall()
	for _, want := range []string{"generated", "mesh", "wan"} {
		if !strings.Contains(w, want) {
			t.Errorf("waterfall missing %q:\n%s", want, w)
		}
	}
}

// TestTracedRunAllocBudget holds journey tracing to its memory bound:
// the recorder folds events into per-reading and per-packet records, so
// a traced city slice may allocate at most half again what the untraced
// run does. (The recorder that logged the run's events allocated 7.8
// times as much here.)
func TestTracedRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("city slice is not a -short test")
	}
	allocated := func(oc *ObsConfig) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := runOne(citySpec(200), 1, oc); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	plain := allocated(nil)
	traced := allocated(&ObsConfig{Journey: true})
	t.Logf("untraced %d B, traced %d B (%.2fx)", plain, traced, float64(traced)/float64(plain))
	if traced > plain+plain/2 {
		t.Errorf("traced run allocated %d B, more than 1.5x the untraced run's %d B", traced, plain)
	}
}
