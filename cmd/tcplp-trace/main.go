// Command tcplp-trace emits the Fig. 7a congestion-window trace: a bulk
// TCP flow over three wireless hops with no link-retry delay (d = 0), so
// hidden-terminal losses occur continuously. The default output is TSV
// (time_s, cwnd_bytes, ssthresh_bytes) followed by a summary table; -csv
// emits a strict CSV time-series (summary to stderr) so per-variant
// window dynamics can be collected and plotted across runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"tcplp/internal/experiments"
	"tcplp/internal/tcplp/cc"
)

func main() {
	scale := flag.Float64("scale", 1.0, "duration scale factor")
	csv := flag.Bool("csv", false, "emit CSV (header + rows) on stdout, summary on stderr")
	variant := flag.String("variant", "", "congestion-control variant (newreno|cubic|westwood|bbr|vegas)")
	window := flag.Int("window", 0, "send/receive window in segments (default 4)")
	workers := flag.Int("workers", 0, "scenario runner worker pool (0 = all CPUs)")
	flag.Parse()

	v, err := cc.Parse(*variant)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *window < 0 {
		fmt.Fprintln(os.Stderr, "-window must be >= 1 segment")
		os.Exit(1)
	}

	trace, summary := experiments.CwndTrace(experiments.Opts{
		Scale:      experiments.Scale(*scale),
		Workers:    *workers,
		Variant:    v,
		WindowSegs: *window,
	})
	if *csv {
		fmt.Println("time_s,cwnd_bytes,ssthresh_bytes,variant")
		for _, p := range trace {
			fmt.Printf("%.3f,%d,%d,%s\n", p.T.Seconds(), p.Cwnd, clipSsthresh(p.Ssthresh), v)
		}
		fmt.Fprintln(os.Stderr, summary.String())
		return
	}
	fmt.Println("# time_s\tcwnd_bytes\tssthresh_bytes")
	for _, p := range trace {
		fmt.Printf("%.3f\t%d\t%d\n", p.T.Seconds(), p.Cwnd, clipSsthresh(p.Ssthresh))
	}
	fmt.Println()
	fmt.Println(summary.String())
}

// clipSsthresh maps the initial "infinite" ssthresh to -1 for plotting.
func clipSsthresh(ss int) int {
	if ss > 1<<20 {
		return -1
	}
	return ss
}
