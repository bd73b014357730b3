package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"tcplp/internal/sim"
)

// FuzzParseSpecs: a spec file is outside input. ParseSpecs (and the
// Validate it runs) must never panic on any bytes, and a spec it accepts
// that fits a small budget must build and run a simulated second without
// panicking — ParseSpecs is the one check between a file and the build,
// whose switches take the last kind, protocol and pattern Validate
// accepts as their default. An error from the run (an unrouted endpoint,
// say) is a refusal, not a failure.
func FuzzParseSpecs(f *testing.F) {
	examples, _ := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	paper, _ := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "paper", "*.json"))
	examples = append(examples, paper...)
	if len(examples) == 0 {
		f.Fatal("example specs missing")
	}
	for _, path := range examples {
		f.Add(readFile(f, path))
	}
	// The workload files wrap their specs; only the specs array is spec
	// input. The files are read, never written.
	workloads, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "workloads", "*.json"))
	if err != nil || len(workloads) == 0 {
		f.Fatalf("workload files missing: %v", err)
	}
	for _, path := range workloads {
		var w struct {
			Specs json.RawMessage `json:"specs"`
		}
		if err := json.Unmarshal(readFile(f, path), &w); err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(w.Specs))
	}
	for _, h := range hostileSpecs() {
		f.Add([]byte(h.spec))
	}
	// The -window repro, as the spec-level window it amounts to.
	f.Add([]byte(`{"name":"w","topology":{"kind":"chain","nodes":2},"net":{"window_segs":3000000},"flows":[{"from":1,"to":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseSpecs(data)
		if err != nil {
			return
		}
		for _, s := range specs {
			cells, ok := fuzzBudget(s)
			if !ok {
				continue
			}
			for _, c := range cells {
				c.Warmup, c.Duration = 0, Duration(sim.Second)
				c.IdleWindow = 0
			}
			(&Runner{Workers: 1}).RunAll(cells)
		}
	})
}

// fuzzBudget trims a validated spec to what one fuzzing iteration can
// run — its first 4 cells, each at its first seed — and refuses it if a
// cell has more than 64 nodes or a periodic timer (sampling, polling,
// duty-cycle sampling) finer than 10 ms.
func fuzzBudget(s *Spec) ([]*Spec, bool) {
	coarse := func(d Duration) bool { return d == 0 || d >= Duration(10*sim.Millisecond) }
	node := func(ns *NodeSpec) bool {
		return ns == nil || (coarse(ns.SleepInterval) && (ns.FastInterval == nil || coarse(*ns.FastInterval)))
	}
	cells := s.Expand()
	cells = cells[:min(len(cells), 4)]
	for _, c := range cells {
		if c.Topology.nodeCount() > 64 || !coarse(c.DCSample) || !node(c.AllNodes) {
			return nil, false
		}
		for i := range c.Nodes {
			if !node(&c.Nodes[i]) {
				return nil, false
			}
		}
		for _, fl := range c.Flows {
			if !coarse(fl.Interval) {
				return nil, false
			}
		}
		c.Seeds = c.Seeds[:min(len(c.Seeds), 1)]
	}
	return cells, true
}

func readFile(tb testing.TB, path string) []byte {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
