package scenario

import (
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"

	"tcplp/internal/obs/journey"
	"tcplp/internal/sim"
)

// TestAddressFilterInvisible pins the contract of the radio's frame filter
// (package phy, "Hot state and frame filter"): it only spares a MAC frames
// the MAC would have discarded on its own, so a run with the filter
// switched off on every radio — each MAC back to checking every frame
// its radio decodes — produces the same Result, field for field, traced
// or not. Every node is woken first (TestWakeIsInvisible: that changes
// nothing), since a dormant node has no MAC to check anything and the
// one its first frame builds would switch its radio's filter back on.
func TestAddressFilterInvisible(t *testing.T) {
	sleepyOffice := &Spec{
		Name:     "office-sleepy",
		Topology: TopologySpec{Kind: TopoOffice},
		Net:      NetSpec{PER: 0.02},
		Flows: []FlowSpec{
			{Label: "tcp", From: NodeID(11), To: Host(), Pattern: PatternAnemometer, Interval: Duration(sim.Second), Batch: 8},
			{Label: "coap", From: NodeID(13), To: Host(), Protocol: "coap", Interval: Duration(sim.Second), Batch: 8},
		},
		Warmup:   Duration(5 * sim.Second),
		Duration: Duration(60 * sim.Second),
	}
	fast := Duration(100 * sim.Millisecond)
	for _, id := range []int{11, 13} {
		sleepyOffice.Nodes = append(sleepyOffice.Nodes, NodeSpec{
			ID: id, Sleepy: true, SleepInterval: Duration(2 * sim.Second), FastInterval: &fast,
		})
	}
	city := citySpec(200)
	city.Topology.Density = 12
	chain := obsSpec()
	chain.Topology.Nodes = 5
	chain.Flows[0].From = NodeID(4)
	chain.Flows = append(chain.Flows, FlowSpec{Label: "bulk", From: NodeID(3), To: NodeID(0)})

	run := func(spec *Spec, filter, traced bool) Result {
		t.Helper()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		r := &Runner{}
		if traced {
			r.Obs = &ObsConfig{Journey: true, OnJourney: func(string, int64, *journey.Report) {}}
		}
		rc, err := r.buildRun(spec.withDefaults(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if !filter {
			for _, n := range rc.net.Nodes {
				n.Mac() // wakes the node: its new MAC turns the filter on
				n.Radio.SetAddressFilter(false)
			}
		}
		rc.run()
		return rc.collect()
	}
	digest := func(res Result) [32]byte {
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	for _, spec := range []*Spec{chain, sleepyOffice, gwStar(6), city} {
		for _, traced := range []bool{false, true} {
			on, off := run(spec, true, traced), run(spec, false, traced)
			if !reflect.DeepEqual(on, off) || digest(on) != digest(off) {
				oj, _ := json.Marshal(on)
				fj, _ := json.Marshal(off)
				t.Errorf("%s (traced %v): the frame filter changed the run:\nfilter on:  %s\nfilter off: %s", spec.Name, traced, oj, fj)
			}
			if on.Events == 0 || on.Layers["phy"]["frames_recv"] == 0 || on.Layers["mac"]["data_sent"] == 0 {
				t.Errorf("%s: nothing happened (events %d, layers %v)", spec.Name, on.Events, on.Layers)
			}
		}
	}
}
