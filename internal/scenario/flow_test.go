package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/obs/journey"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

func TestDeliveryRatio(t *testing.T) {
	cases := []struct {
		gen, deliv, backlog uint64
		want                float64
	}{
		{0, 0, 0, 0},
		{100, 100, 0, 1},
		{100, 90, 10, 1},           // backlog excluded entirely
		{100, 80, 10, 80.0 / 90.0}, // partial backlog
		{100, 50, 0, 0.5},
		{100, 120, 0, 1},  // pre-window backlog drained: capped
		{100, 40, 200, 1}, // backlog capped at gen-deliv
	}
	for _, c := range cases {
		if got := DeliveryRatio(c.gen, c.deliv, c.backlog); got != c.want {
			t.Fatalf("DeliveryRatio(%d, %d, %d) = %v, want %v",
				c.gen, c.deliv, c.backlog, got, c.want)
		}
	}
}

func TestMessageSize(t *testing.T) {
	net := stack.New(1, mesh.Chain(2, 10), stack.DefaultOptions())
	msg := messageSize(net, 82)
	if msg <= 0 || msg%82 != 0 {
		t.Fatalf("message size %d not a whole number of readings", msg)
	}
	info := stack.SegmentSizing(5, true)
	if msg > info.SegmentPayload {
		t.Fatalf("message size %d exceeds the segment payload %d", msg, info.SegmentPayload)
	}
}

// TestFlowMatrix crosses every transport preset with every pattern and
// sink kind. Validate must accept exactly the combinations a probe can
// run — startFlow and startTCP panic on anything else, so nothing they
// would refuse may get past it — and each accepted one must build and
// run a simulated second.
func TestFlowMatrix(t *testing.T) {
	sinks := map[string]NodeRef{"node": NodeID(0), "host": Host(), "gateway": Gateway()}
	for _, preset := range []string{"tcp", "udp", "coap", "coap-non", "cocoa"} {
		for _, pattern := range []string{"", PatternBulk, PatternAnemometer} {
			for sink, to := range sinks {
				protocol, confirmable, rto, _ := protoPreset(preset)
				spec := &Spec{
					Name:     preset + "/" + pattern + "/" + sink,
					Topology: TopologySpec{Kind: TopoChain, Nodes: 3},
					Gateway:  &GatewaySpec{},
					Flows: []FlowSpec{{From: End(), To: to, Protocol: protocol,
						Confirmable: confirmable, RTO: rto, Pattern: pattern,
						Interval: Duration(50 * sim.Millisecond)}},
					Duration: Duration(sim.Second),
				}
				telemetry := pattern == "" || pattern == PatternAnemometer
				want := telemetry
				switch {
				case protocol == protoTCP:
					want = telemetry || sink != "gateway"
				case protocol == protoUDP:
					want = telemetry && sink != "gateway"
				}
				err := spec.Validate()
				if got := err == nil; got != want {
					t.Errorf("%s: Validate accepted = %v (%v), want %v", spec.Name, got, err, want)
					continue
				}
				if err != nil {
					continue
				}
				res, err := runOne(spec, 1, nil)
				if err != nil {
					t.Errorf("%s: validated but did not run: %v", spec.Name, err)
					continue
				}
				f := res.Flows[0]
				if f.Protocol != protocol || f.Pattern == "" || f.MSS == 0 {
					t.Errorf("%s: result %+v", spec.Name, f)
				}
				if f.Pattern == PatternAnemometer && (f.Delivered == 0 || f.Gateway && f.E2EDelivered == 0) {
					t.Errorf("%s: no reading credited in a second of 20 Hz sampling: %+v", spec.Name, f)
				}
			}
		}
	}
}

// TestFlowResultJSONShape pins FlowResult's JSON keys, their order and
// which of them a zero value omits: Result digests (benchmark/, the
// equiv goldens' JSON siblings) are hashes of this encoding.
func TestFlowResultJSONShape(t *testing.T) {
	const all = "label gateway protocol variant window_segs mss pattern goodput_kbps bytes sent_bytes " +
		"retransmits timeouts fast_rtx srtt_ms mean_rtt_ms median_rtt_ms rtt_p10_ms rtt_p90_ms rtt_max_ms " +
		"generated delivered backlog delivery_ratio lat_p50_ms lat_p99_ms " +
		"e2e_delivered wan_lost e2e_delivery_ratio credit_share rto_ms radio_dc cpu_dc idle_radio_dc cwnd_trace journey"
	const always = "label protocol mss pattern goodput_kbps bytes sent_bytes " +
		"retransmits timeouts fast_rtx srtt_ms mean_rtt_ms median_rtt_ms rtt_p10_ms rtt_p90_ms rtt_max_ms " +
		"delivery_ratio lat_p50_ms lat_p99_ms radio_dc cpu_dc"

	var full FlowResult
	v := reflect.ValueOf(&full).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int:
			f.SetInt(1)
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Float64:
			f.SetFloat(1)
		}
	}
	full.CwndTrace = []CwndPoint{{}}
	full.Journey = &journey.FlowReport{}
	for _, c := range []struct {
		name string
		fr   FlowResult
		want string
	}{{"full", full, all}, {"zero", FlowResult{}, always}} {
		if got := strings.Join(topLevelKeys(t, c.fr), " "); got != c.want {
			t.Errorf("%s FlowResult keys:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// topLevelKeys returns v's JSON object keys in encoding order.
func topLevelKeys(t *testing.T, v any) []string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
	}
	return keys
}
