// Command tcplp-bench reproduces the paper's tables and figures and
// runs declarative multi-flow scenarios. Each experiment id corresponds
// to one table or figure of the evaluation; "all" runs the complete
// set. A simulating experiment is a spec file under
// examples/scenarios/paper run through the same pipeline as -scenario,
// then rendered as the paper's table: -workers parallelizes its (spec,
// seed) grid without changing a single cell (serial and parallel runs
// are bit-identical), and the capture flags (-journey, -events-out,
// -trace-out, …) work in both modes. A -scenario summary is one more
// table per cell, printed the same way, so -markdown and -ci work in
// both modes too. -manifest-out writes what each run of a -scenario cost
// the simulator (scenario.Manifest), one JSON object per run, and leaves
// the printed results as they are without it.
//
// -scale, -seeds, -variant, -window, -warmup and -duration rewrite the
// specs before they run, the same way in both modes (scenario.Rewrite):
// -scale shrinks every warmup and window (never below 5 s), -seeds N
// runs every cell over N independent channel realizations (rendered as
// mean ± σ cells), -variant and -window set every TCP flow's variant
// and every cell's window where the spec names none.
//
// A scenario file describes topology, link conditions, node roles,
// per-flow transport configuration, and optionally a sweep block that
// expands the spec into a cartesian grid of cells.
//
// Usage:
//
//	tcplp-bench -list
//	tcplp-bench -exp fig4 [-scale 0.25] [-markdown]
//	tcplp-bench -exp fig6 -workers 8 -seeds 5     # parallel, with error bars
//	tcplp-bench -exp fig9 -seeds 5 -ci            # Student-t 95% CI cells
//	tcplp-bench -exp all -scale 0.1
//	tcplp-bench -exp ccvariants -window 8
//	tcplp-bench -scenario examples/scenarios/paper/fig4.json -scale 0.1 -format json  # fig4's cells, raw
//	tcplp-bench -scenario examples/scenarios/twinleaf_mixed.json
//	tcplp-bench -scenario examples/scenarios/interference.json   # TCP vs CoAP
//	tcplp-bench -scenario sweep.json -workers 8 -format csv > out.csv
//	tcplp-bench -scenario spec.json -duration 5s -warmup 1s  # smoke run
//	tcplp-bench -scenario spec.json -workers 1 -manifest-out runs.ndjson  # phase times, counters
//
// Scale 1.0 runs the full published durations (the fig10/table8 day-long
// runs take a while); smaller scales shrink the measurement windows
// proportionally and are fine for checking shapes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"tcplp/internal/experiments"
	"tcplp/internal/obs"
	"tcplp/internal/obs/journey"
	"tcplp/internal/scenario"
	"tcplp/internal/tcplp/cc"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale    = flag.Float64("scale", 1.0, "multiply every warmup and measurement window by this factor, never below 5 s (1.0 = as the spec says)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables (experiments and the scenario summary)")
		list     = flag.Bool("list", false, "list experiment ids")
		variant  = flag.String("variant", "", "congestion-control variant of every TCP flow that names none (newreno|cubic|westwood|bbr|vegas)")
		window   = flag.Int("window", 0, "send/receive window in segments of every cell that sets none (default 4)")
		seeds    = flag.Int("seeds", 0, "run every cell over this many seeds, 99991 apart from its first (experiments render mean ± σ)")
		ci       = flag.Bool("ci", false, "render multi-seed cells as mean ± Student-t 95% CI instead of mean ± σ")
		workers  = flag.Int("workers", 0, "worker pool size for the scenario runner (0 = all CPUs)")
		scenFile = flag.String("scenario", "", "run a JSON scenario spec file instead of an experiment")
		format   = flag.String("format", "summary", "scenario output: summary|csv|json")
		durFlag  = flag.String("duration", "", "replace every spec's measurement window (e.g. 5s)")
		warmFlag = flag.String("warmup", "", "replace every spec's warmup (e.g. 1s)")
		traceOut = flag.String("trace-out", "", "capture every 802.15.4 frame to this pcapng file")
		evOut    = flag.String("events-out", "", "write the structured NDJSON event trace to this file")
		evLayers = flag.String("events-layers", "", "filter -events-out to these comma-separated layers (phy,mac,sixlowpan,ip,tcp,coap,gateway,wan,journey)")
		evFlows  = flag.String("events-flow", "", "filter -events-out to these comma-separated flow labels' source nodes")
		jrny     = flag.Bool("journey", false, "reconstruct per-reading packet journeys, attach latency attribution to flow results and check trace conformance, exiting 1 on a violation")
		jrnyOut  = flag.String("journey-out", "", "write per-reading span trees as Chrome trace events to this file (Perfetto-loadable; implies -journey)")
		metrIntv = flag.String("metrics-interval", "", "sample per-layer metrics into -events-out at this period (e.g. 10s)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (taken at exit, after GC) to this file")
		manifOut = flag.String("manifest-out", "", "write each -scenario run's manifest (identity, wall-clock and allocations per phase, engine and channel counters) to this file, one JSON object per run")
	)
	flag.Parse()

	// Every flag is parsed and checked, and every spec loaded and
	// rewritten, before the first file is created, so a refused
	// invocation leaves earlier output files as they were.
	rw := scenario.Rewrite{Scale: *scale, Seeds: *seeds, WindowSegs: *window}
	if *scale <= 0 {
		refuse("-scale must be > 0")
	}
	if *variant != "" {
		v, err := cc.Parse(*variant)
		if err != nil {
			refuse(err.Error())
		}
		rw.Variant = v
		fmt.Fprintf(os.Stderr, "congestion control: %s\n", v)
	}
	if *window != 0 {
		if *window < 1 {
			refuse("-window must be >= 1 segment")
		}
		// The upper bound is per segment size: see refuseWindow.
		fmt.Fprintf(os.Stderr, "window: %d segments\n", *window)
	}
	if *seeds < 0 {
		refuse("-seeds must be >= 1 (omit or 0 for the spec's own seeds)")
	}
	if *durFlag != "" {
		d := parseDur("duration", *durFlag)
		rw.Duration = &d
	}
	if *warmFlag != "" {
		d := parseDur("warmup", *warmFlag)
		rw.Warmup = &d
	}
	if *evOut == "" && *metrIntv != "" {
		refuse("-metrics-interval needs -events-out to write the samples to")
	}
	if *evOut == "" && (*evLayers != "" || *evFlows != "") {
		refuse("-events-layers/-events-flow need -events-out to filter")
	}
	if *manifOut != "" && *scenFile == "" {
		refuse("-manifest-out needs -scenario")
	}
	var metrics scenario.Duration
	if *metrIntv != "" {
		metrics = parseDur("metrics-interval", *metrIntv)
	}

	// What runs: the scenario file's cells, or each experiment's.
	var cells []*scenario.Spec
	var todo []experiments.Experiment
	if *scenFile != "" {
		if *exp != "" {
			refuse("-scenario cannot be combined with -exp; -exp <id> runs examples/scenarios/paper/<id>.json and renders its tables")
		}
		switch *format {
		case "summary":
		case "csv", "json":
			if *markdown || *ci {
				refuse("-markdown and -ci render the summary table; -format " + *format + " prints every seed's values")
			}
		default:
			// Fail before the sweep runs, not after: full-scale scenario
			// files can take a long time.
			refuse(fmt.Sprintf("unknown -format %q (have summary, csv, json)", *format))
		}
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			refuse(err.Error())
		}
		specs, err := scenario.ParseSpecs(data)
		if err != nil {
			refuse(err.Error())
		}
		cells = rewrite(rw, specs, *scenFile)
	} else {
		if *list || *exp == "" {
			fmt.Println("experiments:")
			for _, e := range experiments.Registry {
				fmt.Printf("  %-10s %s\n", e.ID, e.Desc)
			}
			return
		}
		todo = experiments.Registry
		if *exp != "all" {
			e, ok := experiments.Find(*exp)
			if !ok {
				refuse(fmt.Sprintf("unknown experiment %q (try -list)", *exp))
			}
			todo = []experiments.Experiment{e}
		}
		for _, e := range todo {
			specs, err := e.Specs()
			if err != nil {
				refuse(err.Error())
			}
			if specs != nil {
				rewrite(rw, specs, e.ID) // refused here, not halfway through -exp all
			}
		}
		if *ci && *seeds < 2 {
			fmt.Fprintln(os.Stderr, "note: -ci needs -seeds >= 2 to have anything to put an interval on")
		}
	}

	defer startProfiles(*cpuProf, *memProf)()
	oc, finish := buildObsConfig(*traceOut, *evOut, *evLayers, *evFlows, metrics, *jrny, *jrnyOut, *manifOut != "")
	var manifests *os.File
	if *manifOut != "" {
		manifests = create(*manifOut)
	}
	// Every traced run goes through the conformance checker.
	var jt *journeyTotals
	if oc != nil && (oc.Journey || oc.JourneyOut != nil) {
		jt = &journeyTotals{}
		oc.OnJourney = jt.observe
	}
	runner := &scenario.Runner{Workers: *workers, Obs: oc}
	opts := experiments.Opts{Rewrite: rw, Runner: runner, CI: *ci}
	render := (*experiments.Table).String
	if *markdown {
		render = (*experiments.Table).Markdown
	}
	if *scenFile != "" {
		runScenario(cells, opts, *format, render, manifests)
	} else {
		for _, e := range todo {
			fmt.Fprintf(os.Stderr, "running %s (%s)...\n", e.ID, e.Desc)
			tabs, err := e.Run(opts)
			if err != nil {
				refuse(err.Error())
			}
			for _, tab := range tabs {
				fmt.Println(render(tab))
			}
		}
	}
	finish()
	if jt != nil {
		out := os.Stderr // keep csv/json output parseable
		if *scenFile == "" || *format == "summary" {
			out = os.Stdout
		}
		if !jt.report(out) {
			os.Exit(1)
		}
	}
}

// refuse prints why an invocation is refused and exits 1.
func refuse(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// rewrite applies the flags' rewrite to the specs of a scenario file or
// an experiment (named by what), exiting 1 when it refuses them, and
// notes a flag that changed nothing.
func rewrite(rw scenario.Rewrite, specs []*scenario.Spec, what string) []*scenario.Spec {
	cells, unused, err := rw.Apply(specs)
	if err != nil {
		refuseWindow(err)
		refuse(err.Error())
	}
	for _, u := range unused {
		fmt.Fprintf(os.Stderr, "note: %s sets its own %s everywhere; -%s changes nothing\n", what, u, u)
	}
	return cells
}

// create creates (or truncates) an output file, exiting 1 when it cannot.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return f
}

// startProfiles starts the -cpuprofile profile; the returned func, run at
// exit, writes the -memprofile heap profile and stops the CPU profile.
func startProfiles(cpuProf, memProf string) (stop func()) {
	if cpuProf != "" {
		if err := pprof.StartCPUProfile(create(cpuProf)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	return func() {
		if cpuProf != "" {
			defer pprof.StopCPUProfile()
		}
		if memProf == "" {
			return
		}
		f, err := os.Create(memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
}

// parseDur converts a -duration/-warmup override into a scenario
// duration.
func parseDur(flagName, s string) scenario.Duration {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		fmt.Fprintf(os.Stderr, "bad -%s %q: want a Go duration like 5s\n", flagName, s)
		os.Exit(1)
	}
	return scenario.Duration(d / time.Microsecond)
}

// buildObsConfig creates the capture files and assembles the scenario
// runner's observability config from checked flags; nil when no capture
// or manifest was requested. The returned finish func flushes
// deferred writers (the Chrome trace's closing bracket) and must run
// after the scenario completes.
func buildObsConfig(traceOut, evOut, evLayers, evFlows string, metrics scenario.Duration, jrny bool, jrnyOut string, manifest bool) (*scenario.ObsConfig, func()) {
	finish := func() {}
	if traceOut == "" && evOut == "" && !jrny && jrnyOut == "" && !manifest {
		return nil, finish
	}
	oc := &scenario.ObsConfig{
		Manifest:        manifest,
		Journey:         jrny,
		EventLayers:     splitList(evLayers),
		EventFlows:      splitList(evFlows),
		MetricsInterval: metrics.D(),
	}
	if jrnyOut != "" {
		f := create(jrnyOut)
		cw := journey.NewChromeWriter(f)
		oc.JourneyOut = cw
		finish = func() {
			if err := cw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}
	if evOut != "" {
		oc.Events = obs.NewNDJSONWriter(create(evOut))
	}
	if traceOut != "" {
		pw, err := obs.NewPcapWriter(create(traceOut))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		oc.Pcap = pw
	}
	return oc, finish
}

// journeyTotals sums the conformance checker's verdicts over every
// traced run of an invocation. The runner calls observe from its worker
// goroutines.
type journeyTotals struct {
	mu                                         sync.Mutex
	runs, generated, delivered, lost, inFlight int
	violations                                 int
	first                                      []string // the first few violations, tagged with their run
}

func (jt *journeyTotals) observe(name string, seed int64, rep *journey.Report) {
	c := journey.Check(rep)
	jt.mu.Lock()
	defer jt.mu.Unlock()
	jt.runs++
	jt.generated += c.Generated
	jt.delivered += c.Delivered
	jt.lost += c.Lost
	jt.inFlight += c.InFlight
	jt.violations += len(c.Violations)
	for _, v := range c.Violations {
		if len(jt.first) == 5 {
			break
		}
		jt.first = append(jt.first, fmt.Sprintf("%s seed %d: %s", name, seed, v))
	}
}

// report prints the totals and any violations; false means the trace
// did not conform.
func (jt *journeyTotals) report(w io.Writer) bool {
	fmt.Fprintf(w, "journey conformance: %d run(s), %d readings generated = %d delivered + %d lost + %d in flight, %d violation(s)\n",
		jt.runs, jt.generated, jt.delivered, jt.lost, jt.inFlight, jt.violations)
	for _, v := range jt.first {
		fmt.Fprintf(os.Stderr, "journey conformance violation: %s\n", v)
	}
	return jt.violations == 0
}

// refuseWindow exits 1 naming -window and its limit when err is a
// *scenario.WindowError; otherwise it returns.
func refuseWindow(err error) {
	var we *scenario.WindowError
	if errors.As(err, &we) {
		fmt.Fprintf(os.Stderr, "-window %d is over the limit of %d segments at seg_frames %d (the per-connection buffer bound; scenario %q)\n",
			we.Window, we.Limit, we.SegFrames, we.Spec)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runScenario fans the cells out across the worker pool and prints the
// results in the requested format: a summary is each cell's table, as
// -exp prints one, then its journey waterfalls. With manifests, each
// run's manifest goes there first, and out of the printed results.
func runScenario(cells []*scenario.Spec, o experiments.Opts, format string, render func(*experiments.Table) string, manifests *os.File) {
	nRuns := 0
	for _, s := range cells {
		nRuns += max(len(s.Seeds), 1)
	}
	fmt.Fprintf(os.Stderr, "running %d scenario cell(s), %d run(s)...\n", len(cells), nRuns)
	results, err := o.Runner.RunAll(cells)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if manifests != nil {
		if err := writeManifests(manifests, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	switch format {
	case "summary":
		for _, sr := range results {
			fmt.Println(render(experiments.Summary(o, sr)) + sr.Waterfall())
		}
	case "csv":
		err = scenario.WriteCSV(os.Stdout, results)
	case "json":
		err = scenario.WriteJSON(os.Stdout, results)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// writeManifests writes every run's manifest to f, one JSON object per
// line in cell and seed order, clears it from the run, and closes f.
func writeManifests(f *os.File, results []*scenario.SpecResult) error {
	enc := json.NewEncoder(f)
	for _, sr := range results {
		for i := range sr.Runs {
			if err := enc.Encode(sr.Runs[i].Manifest); err != nil {
				f.Close()
				return err
			}
			sr.Runs[i].Manifest = nil
		}
	}
	return f.Close()
}
