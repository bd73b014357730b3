package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// TestRewriteScale pins -scale: every nonzero warmup and every window is
// multiplied, floored at 5 s and a window at one dc_sample period; a zero
// warmup, an idle phase and the input spec stay as they were; -warmup and
// -duration win over it.
func TestRewriteScale(t *testing.T) {
	spec := &Spec{
		Name:       "scaled",
		Topology:   TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:      []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
		Warmup:     Duration(20 * sim.Second),
		Duration:   Duration(10 * sim.Minute),
		IdleWindow: Duration(2 * sim.Minute),
	}
	day := &Spec{
		Name:     "day",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
		Duration: Duration(24 * sim.Hour),
		DCSample: Duration(sim.Hour),
	}
	noWindow := &Spec{
		Name:     "default-window",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
	}
	five := Duration(5 * sim.Second)
	for _, c := range []struct {
		rw                         Rewrite
		spec                       *Spec
		warmup, window, idleWindow Duration
	}{
		{Rewrite{}, spec, spec.Warmup, spec.Duration, spec.IdleWindow},
		{Rewrite{Scale: 1}, spec, spec.Warmup, spec.Duration, spec.IdleWindow},
		{Rewrite{Scale: 0.5}, spec, Duration(10 * sim.Second), Duration(5 * sim.Minute), spec.IdleWindow},
		{Rewrite{Scale: 0.0001}, spec, five, five, spec.IdleWindow},
		{Rewrite{Scale: 0.1, Warmup: &five}, spec, five, Duration(sim.Minute), spec.IdleWindow},
		{Rewrite{Scale: 0.1}, day, 0, Duration(144 * sim.Minute), 0},
		{Rewrite{Scale: 0.02}, day, 0, Duration(sim.Hour), 0},
		{Rewrite{Scale: 0.02, Duration: &five}, day, 0, five, 0},
		{Rewrite{Scale: 0.5}, noWindow, 0, Duration(30 * sim.Second), 0},
	} {
		before := *c.spec
		cells := rewritten(t, c.rw, c.spec)
		got := cells[0]
		if got.Warmup != c.warmup || got.Duration != c.window || got.IdleWindow != c.idleWindow {
			t.Errorf("%s under %+v: warmup %v window %v idle %v, want %v %v %v", c.spec.Name, c.rw,
				got.Warmup, got.Duration, got.IdleWindow, c.warmup, c.window, c.idleWindow)
		}
		if !reflect.DeepEqual(*c.spec, before) {
			t.Fatalf("Apply rewrote its input %s", c.spec.Name)
		}
	}
}

// TestRewriteScaleBounded: a -scale that is not finite, or that would
// take a cell's warmup and window past the largest Duration, is refused
// naming -scale (and the cell's limit); -scale 1e3 still runs a default
// 60 s window for 16h40m, and a scale just under a cell's limit still
// scales it.
func TestRewriteScaleBounded(t *testing.T) {
	spec := &Spec{
		Name:     "huge",
		Topology: TopologySpec{Kind: TopoChain, Nodes: 2},
		Flows:    []FlowSpec{{From: NodeID(1), To: NodeID(0)}},
	}
	for _, c := range []struct {
		scale float64
		want  string
	}{
		{math.NaN(), "-scale NaN is not a finite number"},
		{math.Inf(1), "-scale +Inf is not a finite number"},
		{1e12, `-scale 1e+12 is over the limit of 1.537e+11 for scenario "huge"`},
		{1e300, `-scale 1e+300 is over the limit of 1.537e+11 for scenario "huge"`},
	} {
		if cells, _, err := (Rewrite{Scale: c.scale}).Apply([]*Spec{spec}); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("-scale %v: %d cells, err = %v, want %q…", c.scale, len(cells), err, c.want)
		}
	}
	if got := rewritten(t, Rewrite{Scale: 1e3}, spec)[0].Duration; got != Duration(1000*sim.Minute) {
		t.Errorf("-scale 1e3: window %v, want 16h40m0s", got)
	}
	second := *spec
	second.Duration = Duration(sim.Second)
	if got := rewritten(t, Rewrite{Scale: 9e12}, &second)[0].Duration; got != Duration(9e18) {
		t.Errorf("-scale 9e12 of a 1 s window: %d µs, want 9e18", int64(got))
	}
}

// TestRewriteSeeds pins -seeds on a sweep: a cell's seeds are SeedSpacing
// apart from its first, so rewriting the expanded cells lands every cell on
// the seeds the rewritten sweep would have given it, seed_step included.
func TestRewriteSeeds(t *testing.T) {
	spec := &Spec{
		Name:     "seeds",
		Topology: TopologySpec{Kind: TopoChain},
		Flows:    []FlowSpec{{From: End(), To: NodeID(0)}},
		Sweep:    &Sweep{Hops: []int{1, 2, 3}, SeedStep: 7},
		Seeds:    []int64{40, 41},
	}
	cells := rewritten(t, Rewrite{Seeds: 3}, spec)
	if len(cells) != 3 {
		t.Fatalf("%d cells, want 3", len(cells))
	}
	swept := *spec
	swept.Seeds = []int64{40, 40 + SeedSpacing, 40 + 2*SeedSpacing}
	for i, want := range swept.Expand() {
		if !reflect.DeepEqual(cells[i].Seeds, want.Seeds) {
			t.Fatalf("cell %d seeds %v, want %v", i, cells[i].Seeds, want.Seeds)
		}
	}
	want := fmt.Sprintf("-seeds %d is over the limit of %d", maxSeeds+1, maxSeeds)
	if cells, _, err := (Rewrite{Seeds: maxSeeds + 1}).Apply([]*Spec{spec}); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("%d seeds: %d cells, err = %v, want %q…", maxSeeds+1, len(cells), err, want)
	}
}

// TestRewriteKeepsCellsValid pins what lets Apply leave checking to
// ParseSpecs: every rewrite the command line can make, applied to every
// checked-in spec, gives cells that Validate accepts. The workload files
// are read, never written.
func TestRewriteKeepsCellsValid(t *testing.T) {
	var files [][]byte
	for _, dir := range []string{"", "paper"} {
		paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", dir, "*.json"))
		for _, path := range paths {
			files = append(files, readFile(t, path))
		}
	}
	workloads, _ := filepath.Glob(filepath.Join("..", "..", "benchmark", "workloads", "*.json"))
	for _, path := range workloads {
		var w struct {
			Specs json.RawMessage `json:"specs"`
		}
		if err := json.Unmarshal(readFile(t, path), &w); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		files = append(files, w.Specs)
	}
	if len(files) < 20 || len(workloads) == 0 {
		t.Fatalf("%d spec files, %d workloads: inputs missing", len(files), len(workloads))
	}
	five, zero := Duration(5*sim.Second), Duration(0)
	rewrites := []Rewrite{{}, {Scale: 0.01}, {Scale: 0.05}, {Scale: 3}, {Seeds: 1}, {Seeds: maxSeeds},
		{WindowSegs: 1}, {WindowSegs: maxWindowSegs(maxSegFrames)}, {Warmup: &zero, Duration: &five}}
	for _, v := range cc.Variants() {
		rewrites = append(rewrites, Rewrite{Variant: v})
	}
	for _, file := range files {
		specs, err := ParseSpecs(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, rw := range rewrites {
			cells, _, err := rw.Apply(specs)
			if err != nil {
				t.Fatalf("%s under %+v: %v", specs[0].Name, rw, err)
			}
			for _, c := range cells {
				if err := c.Validate(); err != nil {
					t.Fatalf("under %+v: %v", rw, err)
				}
			}
		}
	}
}
