package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"time"
)

// The workload files are copies, not references, of the shapes under
// examples/scenarios, so a later edit to an example cannot move the
// baseline.
//
//go:embed workloads/*.json
var workloadFS embed.FS

// workloadNames is the run order; BENCHMARK.json lists the same five.
var workloadNames = []string{
	"bulk_chain", "office_telemetry", "gateway_funnel", "metro_10k", "metro_1k_traced",
}

// workload is one checked-in input set: scenario specs, the reason it
// exists, and one-sided correctness expectations.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Traced makes every timed repetition run with journey tracing and
	// the conformance check (metro_1k_traced).
	Traced bool `json:"traced"`
	// SetupReps is how many zero-window repetitions setup_s is the median of.
	SetupReps int `json:"setup_reps"`
	// Specs are scenario specs kept as generic JSON: the harness only
	// rewrites seeds and windows, and the program parses the result.
	Specs  []map[string]any `json:"specs"`
	Expect []expectation    `json:"expect"`
}

func loadWorkload(name string) (*workload, error) {
	data, err := workloadFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	var w workload
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("workload %s: %v", name, err)
	}
	if w.Name != name {
		return nil, fmt.Errorf("workload file %s.json names itself %q", name, w.Name)
	}
	return &w, nil
}

// Spec variants the harness generates from one workload file.
const (
	fullWindow = iota
	// zeroWindow keeps everything but simulated time (warmup 0, window
	// 1 ms): parse, validate, expand, topology, stack.New, gateway, flow
	// start and collect — the set-up a user pays before the first event.
	zeroWindow
)

const (
	smokeWindow = 10 * time.Second
	smokeWarmup = 5 * time.Second
	smokeNodes  = 1000
)

// generate renders the spec file the program is given: seed is added to
// every channel seed and topology seed, so the program only ever sees
// generated inputs and the same seed gives the same bytes.
func (w *workload) generate(seed int64, variant int, smoke bool) ([]byte, error) {
	var out []map[string]any
	for _, src := range w.Specs {
		spec := make(map[string]any, len(src))
		for k, v := range src {
			spec[k] = v
		}
		seeds, _ := src["seeds"].([]any)
		shifted := make([]any, len(seeds))
		for i, s := range seeds {
			f, ok := s.(float64)
			if !ok {
				return nil, fmt.Errorf("workload %s: non-numeric seed %v", w.Name, s)
			}
			shifted[i] = int64(f) + seed
		}
		spec["seeds"] = shifted
		if topo, ok := src["topology"].(map[string]any); ok {
			t := make(map[string]any, len(topo))
			for k, v := range topo {
				t[k] = v
			}
			if n, ok := topo["nodes"].(float64); ok && smoke && n > smokeNodes {
				t["nodes"] = smokeNodes
			}
			spec["topology"] = t
		}
		if smoke {
			if err := capDuration(spec, "duration", smokeWindow); err != nil {
				return nil, err
			}
			if err := capDuration(spec, "warmup", smokeWarmup); err != nil {
				return nil, err
			}
		}
		if variant == zeroWindow {
			spec["warmup"] = "0s"
			spec["duration"] = "1ms"
		}
		out = append(out, spec)
	}
	return json.Marshal(out)
}

// capDuration lowers spec[key] to max when it is longer.
func capDuration(spec map[string]any, key string, max time.Duration) error {
	s, ok := spec[key].(string)
	if !ok {
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("spec %v: bad %s %q", spec["name"], key, s)
	}
	if d > max {
		spec[key] = max.String()
	}
	return nil
}
