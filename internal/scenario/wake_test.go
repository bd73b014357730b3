package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tcplp/internal/sim"
)

// TestWakeIsInvisible pins the contract of dormancy (package stack,
// "Dormancy"): a node's MAC, TCP and UDP stacks are built when something
// first needs them, and when that happens cannot be told from the
// Result. Every cell of every checked-in spec — examples/scenarios, the
// paper's specs under it and the five benchmark workloads — runs twice
// at a short window, once as built and once with every node woken before
// the first event, the network stack.New used to build; the two Results
// are equal field for field.
func TestWakeIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every checked-in spec twice")
	}
	root := filepath.Join("..", "..")
	examples, _ := filepath.Glob(filepath.Join(root, "examples", "scenarios", "*.json"))
	paper, _ := filepath.Glob(filepath.Join(root, "examples", "scenarios", "paper", "*.json"))
	workloads, _ := filepath.Glob(filepath.Join(root, "benchmark", "workloads", "*.json"))
	if len(examples) < 12 || len(paper) < 19 || len(workloads) != 5 {
		t.Fatalf("found %d example specs, %d paper specs and %d workloads, want >= 12, >= 19 and 5", len(examples), len(paper), len(workloads))
	}
	// The cities keep their density and flow pattern but not their size:
	// 100 000 nodes woken at once is a few hundred megabytes.
	const maxNodes = 10000
	cells, silent := 0, 0
	for _, f := range append(append(examples, paper...), workloads...) {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(filepath.Dir(f)) == "workloads" {
			var w struct{ Specs json.RawMessage }
			if err := json.Unmarshal(data, &w); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			data = w.Specs
		}
		specs, err := ParseSpecs(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// The paper's grids are large; their cells run a shorter window.
		window := Duration(90 * sim.Second)
		if filepath.Base(filepath.Dir(f)) == "paper" {
			window = Duration(70 * sim.Second)
		}
		for _, s := range specs {
			s.Warmup = min(s.Warmup, Duration(10*sim.Second))
			s.Duration = min(s.Duration, window)
			s.Topology.Nodes = min(s.Topology.Nodes, maxNodes)
			for _, cell := range s.Expand() {
				cells++
				run := func(wake bool) (Result, int) {
					rc, err := (&Runner{}).buildRun(cell.withDefaults(), cell.Seeds[0])
					if err != nil {
						t.Fatalf("%s: %s: %v", f, cell.Name, err)
					}
					if wake {
						for _, n := range rc.net.Nodes {
							n.Mac()
						}
						if h := rc.net.Host; h != nil {
							h.TCP()
						}
					}
					rc.run()
					res := rc.collect()
					// A radio that never sent a frame never ACKed one: nobody
					// addressed the node, so only an accessor could have woken it.
					quiet := 0
					for _, n := range rc.net.Nodes {
						if n.Radio.FramesSent() == 0 {
							quiet++
						}
					}
					return res, quiet
				}
				asBuilt, quiet := run(false)
				woken, _ := run(true)
				silent += quiet
				if !reflect.DeepEqual(asBuilt, woken) {
					aj, _ := json.Marshal(asBuilt)
					wj, _ := json.Marshal(woken)
					t.Errorf("%s: %s: waking every node at build changed the run:\nas built: %s\nwoken:    %s", f, cell.Name, aj, wj)
				}
				if asBuilt.Events == 0 || asBuilt.Layers["mac"]["data_sent"] == 0 {
					t.Errorf("%s: %s: nothing happened (events %d)", f, cell.Name, asBuilt.Events)
				}
			}
		}
	}
	t.Logf("%d cells, %d nodes never sent a frame", cells, silent)
	if silent == 0 {
		t.Error("every node of every cell sent a frame: the test no longer has a dormant node to compare")
	}
}
