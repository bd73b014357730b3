package experiments

import (
	"fmt"
	"runtime"
	"time"

	"tcplp/internal/scenario"
	"tcplp/internal/sim"
)

// The city sweep scales the evaluation past the paper's 15-node office:
// random-geometric fields of hundreds to a thousand nodes, each carrying
// ~one instrumented telemetry flow per ten devices into the border-router
// gateway. Alongside the usual goodput/fairness columns it reports the
// simulator's own performance — wall-clock, events per second, and heap
// allocations per event — the trajectory the spatially-indexed PHY and
// pooled event arena exist to bend.

// citySpec builds one city cell; examples/scenarios/city_1k.json carries
// the same shape as a sweep over node count × variant.
func citySpec(n int, variant string, warm, dur sim.Duration, seeds []int64) *scenario.Spec {
	stride := n / 100
	if stride < 1 {
		stride = 1
	}
	return &scenario.Spec{
		Name: fmt.Sprintf("city/n=%d/cc=%s", n, variant),
		Topology: scenario.TopologySpec{
			Kind:    scenario.TopoRandomGeometric,
			Nodes:   n,
			Density: 8,
		},
		Gateway: &scenario.GatewaySpec{
			WAN: scenario.WANSpec{
				BandwidthKbps: 256,
				RTT:           scenario.Duration(50 * sim.Millisecond),
				QueueCap:      256,
			},
		},
		Flows: []scenario.FlowSpec{{
			Label:     "dev",
			To:        scenario.Gateway(),
			PerDevice: true,
			Stride:    stride,
			Variant:   variant,
			Pattern:   scenario.PatternAnemometer,
			Interval:  scenario.Duration(5 * sim.Second),
		}},
		Warmup:   scenario.Duration(warm),
		Duration: scenario.Duration(dur),
		Seeds:    seeds,
	}
}

// CitySweep sweeps node count × congestion-control variant over the
// random-geometric generator and reports application metrics next to
// engine throughput. Cells run serially (Workers=1) whatever Opts says:
// wall-clock and the process-wide allocation counter are only meaningful
// with one simulation on the heap at a time.
func CitySweep(o Opts) *Table {
	scale := o.scale()
	nodes := []int{200, 500, 1000}
	variants := []string{"newreno", "cubic"}
	t := &Table{
		ID:      "citysweep",
		Title:   "City-scale mesh: delivery and simulator throughput vs node count",
		Columns: []string{"Nodes", "Variant", "Flows", "Agg kb/s", "Jain", "Wall s", "kev/s", "allocs/ev"},
	}
	warm, dur := scale.dur(5*sim.Second), scale.dur(30*sim.Second)
	for _, n := range nodes {
		for _, v := range variants {
			spec := citySpec(n, v, warm, dur, o.seeds(900))
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			sr, err := o.runner(1).Run(spec)
			if err != nil {
				panic(fmt.Errorf("experiments: invalid city spec: %w", err))
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			var events uint64
			for _, run := range sr.Runs {
				events += run.Events
			}
			evPerSec, allocsPerEv := 0.0, 0.0
			if wall > 0 {
				evPerSec = float64(events) / wall.Seconds()
			}
			if events > 0 {
				allocsPerEv = float64(m1.Mallocs-m0.Mallocs) / float64(events)
			}
			t.AddRow(di(n), v, di(len(sr.Runs[0].Flows)),
				o.cell(runSeries(sr, func(r scenario.Result) float64 { return r.AggregateKbps }), f1),
				o.cell(runSeries(sr, func(r scenario.Result) float64 { return r.Jain }), f3),
				f1(wall.Seconds()), f0(evPerSec/1000), f1(allocsPerEv))
		}
	}
	t.Note("engine columns measured serially (one simulation on the heap at a time); allocs/ev is Go heap allocations per simulator event — application columns stay deterministic, engine columns are host-dependent")
	return t
}
