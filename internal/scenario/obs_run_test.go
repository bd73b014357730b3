package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"tcplp/internal/obs"
	"tcplp/internal/obs/journey"
	"tcplp/internal/sim"
)

// obsSpec is a short anemometer run over a 2-hop chain: small enough to
// execute in milliseconds, busy enough to exercise every layer hook.
func obsSpec() *Spec {
	return &Spec{
		Name:     "obs-probe",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 3},
		Flows: []FlowSpec{{
			Label: "anem", From: NodeID(2), To: NodeID(0),
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

// TestObsBitIdentity pins the tentpole contract: attaching every
// instrument (NDJSON events with periodic metric samples, pcap frames,
// journey reconstruction) must not change a run's Result in any field,
// Events included — hooks read state, never draw RNG or schedule
// events, and the sampler reads the layer counters between engine slices.
// Journey adds its own attribution block and nothing else.
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
		Events:          obs.NewNDJSONWriter(&events),
		Pcap:            pw,
		MetricsInterval: 3 * sim.Second, // 20 s window: six samples and a partial slice
		Journey:         true,
	}
	traced, err := runOne(obsSpec(), 42, oc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range traced.Flows {
		if traced.Flows[i].Journey == nil {
			t.Fatalf("flow %q: no journey attribution", traced.Flows[i].Label)
		}
		traced.Flows[i].Journey = nil
	}
	bj, _ := json.Marshal(base)
	tj, _ := json.Marshal(traced)
	if !bytes.Equal(bj, tj) {
		t.Errorf("tracing perturbed the run:\ndisabled: %s\nenabled:  %s", bj, tj)
	}
	if n := strings.Count(events.String(), `"type":"metrics"`); n != 6 {
		t.Errorf("got %d metrics samples, want 6", n)
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

// TestManifestIsBitNeutral: asking for the run manifest fills it on every
// run of a gateway sweep, and once it is cleared the Results equal those
// of the same sweep run without it, Events included.
func TestManifestIsBitNeutral(t *testing.T) {
	specs, err := ParseSpecs([]byte(`{
		"name": "manifest-gw",
		"topology": {"kind": "star"},
		"all_nodes": {"sleepy": true, "sleep_interval": "2s"},
		"gateway": {"max_conns": 4, "wan": {"bandwidth_kbps": 8, "rtt": "100ms", "loss": 0.01, "queue_cap": 8}},
		"flows": [{"label": "dev", "to": "gateway", "per_device": true, "pattern": "anemometer", "interval": "500ms"}],
		"sweep": {"devices": [2, 6]},
		"warmup": "2s", "duration": "8s", "seeds": [3, 4]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	run := func(oc *ObsConfig) []*SpecResult {
		out, err := (&Runner{Workers: 2, Obs: oc}).RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain, withM := run(nil), run(&ObsConfig{Manifest: true})
	for ci := range withM {
		for ri := range withM[ci].Runs {
			res := &withM[ci].Runs[ri]
			m := res.Manifest
			if m == nil {
				t.Fatalf("cell %d run %d: no manifest", ci, ri)
			}
			if m.Spec != res.Name || m.Seed != res.Seed || len(m.SpecSHA256) != 64 || m.GoVersion == "" {
				t.Fatalf("manifest identity %+v for run %s seed %d", m, res.Name, res.Seed)
			}
			var names []string
			for _, p := range m.Phases {
				names = append(names, p.Name)
				if p.WallNs <= 0 {
					t.Fatalf("phase %s took %d ns", p.Name, p.WallNs)
				}
			}
			if strings.Join(names, ",") != "build,run,collect" {
				t.Fatalf("phases %v, want build, run, collect", names)
			}
			c, e := m.Channel, m.Engine
			// Every frame's end is its txDone's continuation; a frame still
			// on air at the end has not run it yet.
			ends := e.ThenInline + e.ThenFiled
			if m.Events != res.Events || c.Frames < res.FramesSent || ends > c.Frames || ends+8 < c.Frames || c.Resolved > c.SensedVisits {
				t.Fatalf("manifest counters %+v against events %d, frames sent %d", m, res.Events, res.FramesSent)
			}
			// Node 0's three arrays and the grid's two over a star of a
			// few nodes (16 B a node, and 64 B for the grid's least
			// table), and no column: every flow runs to the border router.
			if m.RouteBytes <= 64 || m.RouteBytes > 256 {
				t.Fatalf("a star's routes hold %d bytes, want 64 to 256", m.RouteBytes)
			}
			if m.FwdEntriesPeak != 0 {
				t.Fatalf("a star relays nothing, but a node held %d forwarding entries", m.FwdEntriesPeak)
			}
			if m.TCPBufBytes == 0 {
				t.Fatalf("TCP devices sent readings, but the run made no TCP buffer bytes")
			}
			if p := m.Pools; p.FragBufs == 0 || p.OutItems == 0 || p.MacJobs == 0 {
				t.Fatalf("devices sent readings, but a packet pool made nothing: %+v", p)
			}
			if m.CoAPDedupPeak != 0 {
				t.Fatalf("no flow uses CoAP, but a server held %d exchanges", m.CoAPDedupPeak)
			}
			if m.JourneyBytes != 0 {
				t.Fatalf("the run is not traced, but its manifest counts %d journey bytes", m.JourneyBytes)
			}
			res.Manifest = nil
		}
	}
	pj, _ := json.Marshal(plain)
	mj, _ := json.Marshal(withM)
	if !bytes.Equal(pj, mj) {
		t.Errorf("the manifest perturbed the runs:\nwithout: %s\nwith:    %s", pj, mj)
	}
}

// TestManifestJourneyBytes: a traced run's manifest counts the journey
// recorder's blocks, which hold at least every reading it recorded.
func TestManifestJourneyBytes(t *testing.T) {
	specs, err := ParseSpecs([]byte(`{
		"name": "manifest-journey", "topology": {"kind": "chain", "nodes": 3},
		"flows": [{"label": "tcp", "from": 2, "to": 0, "pattern": "anemometer", "interval": "500ms"}],
		"warmup": "2s", "duration": "8s", "seeds": [1]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := (&Runner{Workers: 1, Obs: &ObsConfig{Manifest: true, Journey: true}}).RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	res := &out[0].Runs[0]
	readings := res.Flows[0].Journey.Generated
	if min := uint64(readings) * uint64(unsafe.Sizeof(journey.Reading{})); readings == 0 || res.Manifest.JourneyBytes < min {
		t.Fatalf("%d readings recorded in %d journey bytes, want at least %d", readings, res.Manifest.JourneyBytes, min)
	}
}

// TestManifestCoAPDedupPeak: a CON flow's collector holds every exchange
// it answered for the exchange lifetime, which outlasts this run, so its
// peak is one exchange per message sent, and no more than one per
// reading; a NON flow's holds none.
func TestManifestCoAPDedupPeak(t *testing.T) {
	for _, tc := range []struct {
		confirmable bool
		min, max    int
	}{{true, 10, 20}, {false, 0, 0}} {
		specs, err := ParseSpecs([]byte(fmt.Sprintf(`{
			"name": "manifest-coap", "topology": {"kind": "chain", "nodes": 2},
			"flows": [{"label": "con", "from": 1, "to": 0, "protocol": "coap", "confirmable": %v, "interval": "500ms"}],
			"warmup": "2s", "duration": "8s", "seeds": [1]
		}`, tc.confirmable)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := (&Runner{Workers: 1, Obs: &ObsConfig{Manifest: true}}).RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := out[0].Runs[0].Manifest.CoAPDedupPeak; got < tc.min || got > tc.max {
			t.Errorf("confirmable %v: the collector held %d exchanges at most; want %d to %d (10 s of 500 ms readings)",
				tc.confirmable, got, tc.min, tc.max)
		}
	}
}
