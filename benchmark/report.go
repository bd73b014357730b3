package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

// runWorkload runs one workload's end-to-end (trace 0) or traced
// (trace 1) run in this process.
func runWorkload(name string, trace int, opt options) (*runOutput, error) {
	w, err := loadWorkload(name)
	if err != nil {
		return nil, err
	}
	h := &harness{w: w, opt: opt, spans: newSpanLog(name)}
	t0 := time.Now()
	out := &runOutput{Workload: name, Trace: trace, Seed: opt.seed}
	switch trace {
	case 0:
		out.Metrics, out.Notes, err = h.endToEnd()
	case 1:
		out.Metrics, out.Notes, err = h.traced()
		out.Spans = h.spans.spans
		out.SelfTimes = selfTimes(h.spans.spans)
	default:
		return nil, fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if err != nil {
		return nil, fmt.Errorf("workload %s: %v", name, err)
	}
	out.Attempted, out.Failed, out.FirstFailure = h.attempted, h.failed, h.firstFailure
	out.Correct = h.failed == 0
	out.Digest = h.workloadDigest()
	out.WallS = time.Since(t0).Seconds()
	return out, nil
}

// resultLine is the last line of a single run's standard output.
func (o *runOutput) resultLine() map[string]any {
	metrics := map[string]any{}
	for _, m := range o.Metrics {
		metrics[m.Name] = map[string]any{"value": m.Median, "unit": m.Unit}
	}
	return map[string]any{
		"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": metrics,
	}
}

// steadyGODEBUG makes the Go runtime return freed heap with MADV_FREE
// instead of MADV_DONTNEED, so the pages stay mapped and the next
// repetition does not fault them in again. On this 2-vCPU VM a
// 250 MB-heap workload took 800 k minor faults per run by default, whose
// cost swung wall_s between 1.4 and 2.0 s; with the setting it takes
// 70 k and wall_s holds within 3%. run.sh sets the same variable.
const steadyGODEBUG = "GODEBUG=madvdontneed=0"

// runChildren runs each selected workload's two runs one at a time,
// each in a fresh child process of this binary, so peak_rss_mb is per
// workload and one workload's heap does not pace another's collector;
// then merges their outputs into result.json and spans.json.
func runChildren(only string, opt options) int {
	names := workloadNames
	if only != "" {
		if _, err := loadWorkload(only); err != nil {
			fatal(err)
		}
		names = []string{only}
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	t0 := time.Now()
	var outs []*runOutput
	status := 0
	for _, name := range names {
		for trace := 0; trace <= 1; trace++ {
			args := []string{"-workload", name, "-trace", fmt.Sprint(trace),
				"-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds)}
			if opt.smoke {
				args = append(args, "-smoke")
			}
			path := filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", name, trace))
			os.Remove(path) // never merge a previous run's output
			fmt.Fprintf(os.Stderr, "benchmark: running %s -trace %d\n", name, trace)
			cmd := exec.Command(self, args...)
			cmd.Env = append(os.Environ(), steadyGODEBUG)
			cmd.Stderr = os.Stderr // the child's table and result line are re-rendered below
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s -trace %d: %v\n", name, trace, err)
				status = 1
			}
			var out runOutput
			if err := readJSON(path, &out); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				status = 1
				continue
			}
			outs = append(outs, &out)
		}
	}
	hdr := header(opt, time.Since(t0))
	var spans []span
	for _, o := range outs {
		base := len(spans)
		for _, s := range o.Spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			spans = append(spans, s)
		}
		o.Spans = nil
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), map[string]any{"header": hdr, "runs": outs}); err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(outDir, "spans.json"), spans); err != nil {
		fatal(err)
	}
	fmt.Printf("# %s, GOMAXPROCS %d, nproc %d, %s\n# commit %s, seed %d, %g s timed per run, total run time %.1f s\n",
		hdr.Go, hdr.GOMAXPROCS, hdr.NProc, hdr.CPU, hdr.Commit, hdr.Seed, hdr.Seconds, hdr.TotalRunS)
	printTable(os.Stdout, outs)
	for _, o := range outs {
		if !o.Correct {
			status = 1
		}
	}
	return status
}

// runHeader records what a reader needs to reproduce or discount a run.
type runHeader struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	TotalRunS  float64 `json:"total_run_s"`
}

func header(opt options, total time.Duration) runHeader {
	return runHeader{
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Commit: commit(), Seed: opt.seed, Seconds: opt.seconds,
		TotalRunS: total.Seconds(),
	}
}

// commit is the revision stamped into the binary or, for go run and
// run.sh builds, which carry none, what git reports for the directory.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printTable prints one row per (workload, metric): name, unit, time
// base, median, quartiles and sample count.
func printTable(w io.Writer, outs []*runOutput) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\ttrace\tmetric\tunit\tbase\tmedian\tq1\tq3\tn")
	for _, o := range outs {
		for _, m := range o.Metrics {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\n",
				o.Workload, o.Trace, m.Name, m.Unit, m.Base, m.Median, m.Q1, m.Q3, m.N)
		}
	}
	tw.Flush()
	for _, o := range outs {
		fmt.Fprintf(w, "%s -trace %d: seed %d, ops_attempted %d, ops_failed %d, result digest %s, %.1f s\n",
			o.Workload, o.Trace, o.Seed, o.Attempted, o.Failed, o.Digest, o.WallS)
		if o.FirstFailure != "" {
			fmt.Fprintf(w, "  first failure: %s\n", o.FirstFailure)
		}
		for _, n := range o.Notes {
			fmt.Fprintf(w, "  %s\n", n)
		}
		if len(o.SelfTimes) > 0 {
			fmt.Fprintln(tw, "  span\tcalls\ttotal_s\tself_s (span minus children)")
			for _, st := range o.SelfTimes {
				fmt.Fprintf(tw, "  %s\t%d\t%.4g\t%.4g\n", st.Name, st.Calls, st.TotalS, st.SelfS)
			}
			tw.Flush()
		}
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}
