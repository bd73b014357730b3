// Command benchmark is the repository's benchmark: five workloads, host
// and simulated end-to-end metrics, per-layer counts, kernels, journey
// stages and CPU-profile shares, all measured from outside the program
// through its public functions. See README.md in this directory.
//
//	go run ./benchmark                                  every workload, both kinds of run
//	go run ./benchmark -workload bulk_chain             one workload, both kinds of run
//	go run ./benchmark -workload bulk_chain -trace 0    the end-to-end run, in this process
//	go run ./benchmark -workload bulk_chain -trace 1    the traced (per-layer) run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeconds equals run_seconds in BENCHMARK.json (the test checks it).
const defaultSeconds = 10

const outDir = "benchmark/out"

// runOutput is what one (workload, trace) run leaves in outDir for the
// parent to merge, and the body of result.json.
type runOutput struct {
	Workload     string     `json:"workload"`
	Trace        int        `json:"trace"`
	Seed         int64      `json:"seed"`
	Correct      bool       `json:"correct"`
	Attempted    int        `json:"ops_attempted"`
	Failed       int        `json:"ops_failed"`
	FirstFailure string     `json:"first_failure,omitempty"`
	Digest       string     `json:"result_digest"`
	Metrics      []metric   `json:"metrics"`
	Notes        []string   `json:"notes,omitempty"`
	SelfTimes    []selfTime `json:"span_self_times,omitempty"`
	Spans        []span     `json:"spans,omitempty"`
	WallS        float64    `json:"run_wall_s"`
}

func main() {
	var (
		seed     = flag.Int64("seed", 1, "added to every spec seed and topology seed")
		name     = flag.String("workload", "", "run one workload (default: all five)")
		smoke    = flag.Bool("smoke", false, "tiny windows and repetition counts, for tests")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long the timed repetitions measure")
		traceArg = flag.Int("trace", -1, "0: end-to-end run; 1: traced per-layer run; unset: both, each in a child process")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	opt := options{seed: *seed, seconds: *seconds, smoke: *smoke}
	if *traceArg == -1 {
		os.Exit(runChildren(*name, opt))
	}
	if *name == "" {
		fatal(fmt.Errorf("-trace needs -workload"))
	}
	out, err := runWorkload(*name, *traceArg, opt)
	if err != nil {
		fatal(err)
	}
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", out.Workload, out.Trace)), out); err != nil {
		fatal(err)
	}
	printTable(os.Stdout, []*runOutput{out})
	line, err := json.Marshal(out.resultLine())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
