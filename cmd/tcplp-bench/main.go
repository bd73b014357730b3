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
// both modes too. Both modes are one list of jobs, one per spec file,
// each loaded once before anything runs, then run and printed by one
// loop. -manifest-out writes what each run cost the simulator
// (scenario.Manifest), one JSON object per run, in either mode — with
// -exp all, the per-phase costs of the full evaluation — and leaves the
// printed results as they are without it. -format prints a -scenario
// file's runs; an experiment's are its file under -scenario.
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
//	tcplp-bench -exp all -scale 0.1 -workers 1 -manifest-out runs.ndjson  # per-run phase costs
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
	"bufio"
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
	if *list && flag.NFlag() > 1 {
		refuse("-list stands alone: it prints the experiment ids and runs nothing")
	}
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
		// The upper bound is per segment size: Rewrite.Apply checks it.
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
	var metrics scenario.Duration
	if *metrIntv != "" {
		metrics = parseDur("metrics-interval", *metrIntv)
	}
	switch *format {
	case "summary":
	case "csv", "json":
		if *scenFile == "" {
			refuse(fmt.Sprintf("-format %s prints a -scenario file's runs; an experiment's are -scenario examples/scenarios/paper/<id>.json -format %[1]s", *format))
		}
		if *markdown || *ci {
			refuse("-markdown and -ci render the summary table; -format " + *format + " prints every seed's values")
		}
	default:
		// Fail before anything runs, not after: full-scale spec files can
		// take a long time.
		refuse(fmt.Sprintf("unknown -format %q (have summary, csv, json)", *format))
	}

	// What runs: one job per spec file, the -scenario file's or each
	// experiment's.
	var jobs []job
	if *scenFile != "" {
		if *exp != "" {
			refuse("-scenario cannot be combined with -exp; -exp <id> runs examples/scenarios/paper/<id>.json and renders its tables")
		}
		file, err := os.ReadFile(*scenFile)
		if err != nil {
			refuse(err.Error())
		}
		jobs = []job{{name: *scenFile, file: file}}
	} else {
		if *exp == "" {
			fmt.Println("experiments:")
			for _, e := range experiments.Registry {
				fmt.Printf("  %-10s %s\n", e.ID, e.Desc)
			}
			return
		}
		todo := experiments.Registry
		if *exp != "all" {
			e, ok := experiments.Find(*exp)
			if !ok {
				refuse(fmt.Sprintf("unknown experiment %q (try -list)", *exp))
			}
			todo = []experiments.Experiment{e}
		}
		for i := range todo {
			file, err := todo[i].File()
			if err != nil {
				refuse(err.Error())
			}
			jobs = append(jobs, job{exp: &todo[i], name: todo[i].ID, file: file})
		}
		if *ci && *seeds < 2 {
			fmt.Fprintln(os.Stderr, "note: -ci needs -seeds >= 2 to have anything to put an interval on")
		}
	}
	// Each file is parsed and rewritten here, once: the cells loaded are
	// the cells that run, and -exp all is refused before it starts.
	for i := range jobs {
		j := &jobs[i]
		cells, unused, err := experiments.Load(j.file, rw)
		if err != nil {
			refuse(err.Error())
		}
		for _, u := range unused {
			fmt.Fprintf(os.Stderr, "note: %s sets its own %s everywhere; -%s changes nothing\n", j.name, u, u)
		}
		j.cells = cells
	}

	closers := startProfiles(*cpuProf, *memProf)
	oc, captures := buildObsConfig(*traceOut, *evOut, *evLayers, *evFlows, metrics, *jrny, *jrnyOut, *manifOut != "")
	closers = append(closers, captures...)
	var manifests *os.File
	if *manifOut != "" {
		manifests = create(*manifOut)
		closers = append(closers, manifests.Close)
	}
	// Every traced run goes through the conformance checker.
	var jt *journeyTotals
	if oc != nil && (oc.Journey || oc.JourneyOut != nil) {
		jt = &journeyTotals{}
		oc.OnJourney = jt.observe
	}
	// A run that fails part-way still closes every output file: the
	// profiles are written and the capture files complete.
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		closeAll(closers)
		os.Exit(1)
	}
	runner := &scenario.Runner{Workers: *workers, Obs: oc}
	o := experiments.Opts{CI: *ci}
	render := (*experiments.Table).String
	if *markdown {
		render = (*experiments.Table).Markdown
	}
	// Run each job's cells and print them: an experiment's tables, or the
	// -scenario file's runs in -format, a summary being each cell's table
	// then its journey waterfalls. Each run's manifest goes to
	// -manifest-out first, and out of the printed results.
	for _, j := range jobs {
		if j.exp != nil {
			fmt.Fprintf(os.Stderr, "running %s (%s)...\n", j.exp.ID, j.exp.Desc)
		} else {
			nRuns := 0
			for _, s := range j.cells {
				nRuns += max(len(s.Seeds), 1)
			}
			fmt.Fprintf(os.Stderr, "running %d scenario cell(s), %d run(s)...\n", len(j.cells), nRuns)
		}
		results, err := runner.RunAll(j.cells)
		if err != nil {
			fail(err)
		}
		if manifests != nil {
			if err := writeManifests(manifests, results); err != nil {
				fail(err)
			}
		}
		switch {
		case j.exp != nil:
			for _, tab := range j.exp.Tables(o, results) {
				fmt.Println(render(tab))
			}
		case *format == "summary":
			for _, sr := range results {
				fmt.Println(render(experiments.Summary(o, sr)) + sr.Waterfall())
			}
		case *format == "csv":
			err = scenario.WriteCSV(os.Stdout, results)
		default:
			err = scenario.WriteJSON(os.Stdout, results)
		}
		if err != nil {
			fail(err)
		}
	}
	closeAll(closers)
	if jt != nil {
		out := os.Stderr // keep csv/json output parseable
		if *format == "summary" {
			out = os.Stdout
		}
		if !jt.report(out) {
			os.Exit(1)
		}
	}
}

// A job is one spec file an invocation runs and prints: the -scenario
// file (exp nil), or an experiment's.
type job struct {
	exp   *experiments.Experiment
	name  string // what a note calls the file: its path, or the experiment's id
	file  []byte // nil for a static table
	cells []*scenario.Spec
}

// refuse prints why an invocation is refused, or failed, and exits 1.
func refuse(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

// create creates (or truncates) an output file, exiting 1 when it cannot.
func create(path string) *os.File {
	f, err := os.Create(path)
	if err != nil {
		refuse(err.Error())
	}
	return f
}

// closeAll runs every closer of the invocation's output files and exits 1
// if any reports an error, printing each.
func closeAll(closers []func() error) {
	var errs []error
	for _, c := range closers {
		errs = append(errs, c())
	}
	if err := errors.Join(errs...); err != nil {
		refuse(err.Error())
	}
}

// startProfiles creates the -cpuprofile and -memprofile files and starts
// the CPU profile. It returns their closers: the first stops the CPU
// profile, the second writes the heap profile (after a GC), and each
// flushes and closes its file, returning the first write error or the
// close's.
func startProfiles(cpuProf, memProf string) (closers []func() error) {
	if cpuProf != "" {
		f := create(cpuProf)
		w := bufio.NewWriter(f) // keeps the first write error pprof drops
		if err := pprof.StartCPUProfile(w); err != nil {
			refuse(err.Error())
		}
		closers = append(closers, func() error {
			pprof.StopCPUProfile()
			return errors.Join(w.Flush(), f.Close())
		})
	}
	if memProf != "" {
		f := create(memProf)
		w := bufio.NewWriter(f)
		closers = append(closers, func() error {
			runtime.GC() // settle the heap so the profile shows live objects
			return errors.Join(pprof.WriteHeapProfile(w), w.Flush(), f.Close())
		})
	}
	return closers
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
// or manifest was requested. The closers, one per capture file, run after
// every run: each writes what its file still lacks (the Chrome trace's
// closing bracket), closes it and returns its writer's first error, then
// Close's.
func buildObsConfig(traceOut, evOut, evLayers, evFlows string, metrics scenario.Duration, jrny bool, jrnyOut string, manifest bool) (_ *scenario.ObsConfig, closers []func() error) {
	if traceOut == "" && evOut == "" && !jrny && jrnyOut == "" && !manifest {
		return nil, nil
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
		closers = append(closers, func() error { return errors.Join(cw.Close(), f.Close()) })
	}
	if evOut != "" {
		f := create(evOut)
		ev := obs.NewNDJSONWriter(f)
		oc.Events = ev
		closers = append(closers, func() error { return errors.Join(ev.Err(), f.Close()) })
	}
	if traceOut != "" {
		f := create(traceOut)
		pw, err := obs.NewPcapWriter(f)
		if err != nil {
			refuse(err.Error())
		}
		oc.Pcap = pw
		closers = append(closers, func() error { return errors.Join(pw.Err(), f.Close()) })
	}
	return oc, closers
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

// writeManifests writes every run's manifest to f, one JSON object per
// line in cell and seed order, and clears it from the run.
func writeManifests(f *os.File, results []*scenario.SpecResult) error {
	enc := json.NewEncoder(f)
	for _, sr := range results {
		for i := range sr.Runs {
			if err := enc.Encode(sr.Runs[i].Manifest); err != nil {
				return err
			}
			sr.Runs[i].Manifest = nil
		}
	}
	return nil
}
