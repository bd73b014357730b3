package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// TestLayerSamples captures a CPU profile of a loop that spends its time
// inside internal/sim and checks that the reader attributes it there.
func TestLayerSamples(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	op := simScheduleFire(1)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		op()
	}
	pprof.StopCPUProfile()

	counts, total, err := layerSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total < 10 {
		t.Skipf("profiler delivered only %d samples", total)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	if sum != total {
		t.Errorf("layer counts sum to %d, total is %d", sum, total)
	}
	// Under the race detector most stacks end inside its runtime and
	// cannot be unwound, so only require that the samples that can be
	// attributed land in sim and nowhere else.
	for layer, c := range counts {
		if layer != "sim" && layer != "runtime" {
			t.Errorf("a loop inside sim.Engine put %d of %d samples in layer %q", c, total, layer)
		}
	}
	if counts["sim"] == 0 {
		t.Errorf("no sample of a loop inside sim.Engine was attributed to sim; counts %v", counts)
	}
	if _, _, err := layerShares(buf.Bytes()); err == nil && total < minProfileSamples {
		t.Errorf("layerShares reported shares from %d samples, under its floor of %d", total, minProfileSamples)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"tcplp/internal/obs/journey.(*Recorder).Record": "obs.journey",
		"tcplp/internal/mac.(*Mac).send.func1":          "mac",
		"tcplp/internal/sim.NewEngine":                  "sim",
		"runtime.mallocgc":                              "",
		"main.(*harness).rep":                           "",
	} {
		if got, _ := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerSamplesRejectsGarbage(t *testing.T) {
	if _, _, err := layerSamples([]byte("not a profile")); err == nil {
		t.Error("layerSamples accepted bytes that are not gzip")
	}
}
