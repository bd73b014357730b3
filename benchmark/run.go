package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"tcplp/internal/obs/journey"
	"tcplp/internal/scenario"
	"tcplp/internal/stats"
)

// options are the harness's inputs for one workload run.
type options struct {
	seed    int64
	seconds float64 // how long the timed repetitions of a -trace 0 run measure
	smoke   bool
}

// metric is one named measurement of one workload. Host metrics are
// medians over repetitions or kernel batches; sim metrics and counts are
// deterministic per spec+seed, so their N is 1.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Base   string  `json:"time_base"` // "host" or "sim"
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func exact(name, unit, base string, v float64) metric {
	return metric{Name: name, Unit: unit, Base: base, Median: v, Q1: v, Q3: v, N: 1}
}

func sampled(name, unit string, vals []float64) metric {
	q1, med, q3 := quartiles(vals)
	return metric{Name: name, Unit: unit, Base: "host", Median: med, Q1: q1, Q3: q3, N: len(vals)}
}

// quartiles matches Python's statistics.quantiles(vals, n=4), the rule
// the benchmark contract states its spreads in.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// harness runs one workload in this process.
type harness struct {
	w     *workload
	opt   options
	spans *spanLog

	// One operation is one (cell, seed) run of a timed, traced or
	// profiled repetition.
	attempted, failed int
	firstFailure      string
	// digests holds each (cell, seed) run's Result digest from the first
	// repetition; every later repetition — traced, profiled, parallel —
	// must reproduce it exactly.
	digests []string
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	msg := fmt.Sprintf(format, args...)
	if h.firstFailure == "" {
		h.firstFailure = msg
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", h.w.Name, msg)
}

// workloadDigest folds the per-run digests into the one printed per
// workload, so a reviewer sees whether a host-only change moved
// simulated behaviour.
func (h *harness) workloadDigest() string {
	sum := sha256.New()
	for _, d := range h.digests {
		sum.Write([]byte(d))
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

// repetition is one pass over the workload's whole grid.
type repetition struct {
	wall    float64 // seconds
	mallocs uint64
	bytes   uint64
	runs    []*scenario.Result // every (cell, seed) run, in grid order
}

// rep runs the grid once from the generated spec bytes — parse,
// validate, expand, build, run, collect — and measures it from outside.
// Tracing is off unless oc is set.
func (h *harness) rep(kind string, spec []byte, oc *scenario.ObsConfig, workers int) (*repetition, error) {
	runtime.GC() // every repetition starts from the same heap
	h.spans.rep++
	endRep := h.spans.begin("rep." + kind)
	defer endRep()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()

	end := h.spans.begin("scenario.parse")
	specs, err := scenario.ParseSpecs(spec)
	end()
	if err != nil {
		return nil, err
	}
	end = h.spans.begin("scenario.expand")
	var cells []*scenario.Spec
	for _, s := range specs {
		cells = append(cells, s.Expand()...)
	}
	end()
	end = h.spans.begin("scenario.run")
	out, err := (&scenario.Runner{Workers: workers, Obs: oc}).RunAll(cells)
	end()
	if err != nil {
		return nil, err
	}

	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	r := &repetition{wall: wall.Seconds(), mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc}
	for _, sr := range out {
		for i := range sr.Runs {
			r.runs = append(r.runs, &sr.Runs[i])
		}
	}
	return r, nil
}

// counted runs a repetition whose (cell, seed) runs are operations.
func (h *harness) counted(kind string, spec []byte, oc *scenario.ObsConfig, workers int) *repetition {
	r, err := h.rep(kind, spec, oc, workers)
	if err != nil {
		h.attempted++
		h.fail("%s repetition: %v", kind, err)
		return nil
	}
	h.verify(kind, r)
	return r
}

// verify counts a repetition's runs as operations. A run fails if its
// digest differs from the first repetition's (determinism, and
// bit-neutrality of tracing, profiling and the worker pool), if a
// physical limit is broken, or — full-size runs only — if a workload
// expectation fails.
func (h *harness) verify(kind string, r *repetition) {
	h.attempted += len(r.runs)
	first := h.digests == nil
	if !first && len(r.runs) != len(h.digests) {
		h.fail("%s repetition ran %d runs, the first ran %d", kind, len(r.runs), len(h.digests))
		return
	}
	for i, run := range r.runs {
		d, err := digest(run)
		if err != nil {
			h.fail("%s %s seed %d: %v", kind, run.Name, run.Seed, err)
			d = "undigestable"
		}
		if first {
			h.digests = append(h.digests, d)
		} else if d != h.digests[i] {
			h.fail("%s %s seed %d: Result digest %.12s differs from the first repetition's %.12s",
				kind, run.Name, run.Seed, d, h.digests[i])
		}
		if msg := physicalLimits(run); msg != "" {
			h.fail("%s %s seed %d: %s", kind, run.Name, run.Seed, msg)
		}
	}
	if !h.opt.smoke {
		for _, e := range h.w.Expect {
			if msg := e.check(r.runs); msg != "" {
				h.fail("%s expectation: %s", kind, msg)
			}
		}
	}
}

// digest is the SHA-256 of a run's canonical JSON (map keys sort) with
// the journey attachment cleared — the one field tracing may add.
func digest(run *scenario.Result) (string, error) {
	c := *run
	c.Flows = append([]scenario.FlowResult(nil), run.Flows...)
	for i := range c.Flows {
		c.Flows[i].Journey = nil
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err // NaN or Inf somewhere in the result
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// physicalLimits checks bounds no correct run can break: 802.15.4
// carries at most 250 kb/s and every ratio lies in [0, 1].
func physicalLimits(run *scenario.Result) string {
	ratio := func(name string, v float64) string {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Sprintf("%s = %v outside [0, 1]", name, v)
		}
		return ""
	}
	if run.AggregateKbps < 0 || run.AggregateKbps > 250 {
		return fmt.Sprintf("aggregate goodput %v kb/s outside [0, 250]", run.AggregateKbps)
	}
	msgs := []string{ratio("jain", run.Jain)}
	if g := run.Gateway; g != nil {
		msgs = append(msgs, ratio("credit_jain", g.CreditJain))
	}
	for i := range run.Flows {
		f := &run.Flows[i]
		msgs = append(msgs,
			ratio(f.Label+" delivery_ratio", f.DeliveryRatio),
			ratio(f.Label+" e2e_delivery_ratio", f.E2EDeliveryRatio),
			ratio(f.Label+" credit_share", f.CreditShare),
			ratio(f.Label+" radio_dc", f.RadioDC),
			ratio(f.Label+" cpu_dc", f.CPUDC))
	}
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return ""
}

// journeyStats pools one traced repetition's journey reports: reading
// latencies, mean stage attribution, and conformance violations.
type journeyStats struct {
	latencyMs  stats.Sample // generation → final sink, every delivered reading
	stages     journey.Buckets
	readings   int
	violations int
	first      string
}

func (j *journeyStats) observe(name string, seed int64, rep *journey.Report) {
	j.readings += len(rep.Readings)
	for _, r := range rep.Readings {
		if r.State != journey.StateDelivered {
			continue
		}
		j.latencyMs.Add(r.End.Sub(r.Gen).Milliseconds())
		b := &r.Buckets
		j.stages.AppQueue += b.AppQueue
		j.stages.SendWait += b.SendWait
		j.stages.RtxStall += b.RtxStall
		j.stages.Gateway += b.Gateway
		j.stages.WAN += b.WAN
		j.stages.Backoff += b.Backoff
		j.stages.Retry += b.Retry
		j.stages.Forward += b.Forward
	}
	c := journey.Check(rep)
	j.violations += len(c.Violations)
	if j.first == "" && len(c.Violations) > 0 {
		j.first = fmt.Sprintf("%s seed %d: %s", name, seed, c.Violations[0])
	}
}

// note states the latency sample size next to the percentiles.
func (j *journeyStats) note() string {
	return fmt.Sprintf("latency sample: %d delivered of %d readings", j.latencyMs.N(), j.readings)
}

// tracedRep is a counted repetition with journey tracing on; every
// conformance violation fails an operation.
func (h *harness) tracedRep(kind string, spec []byte) (*repetition, *journeyStats) {
	js := &journeyStats{}
	r := h.counted(kind, spec, &scenario.ObsConfig{Journey: true, OnJourney: js.observe}, 1)
	if js.violations > 0 {
		h.failed += js.violations - 1
		h.fail("%s: %d journey conformance violations, first: %s", kind, js.violations, js.first)
	}
	return r, js
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
