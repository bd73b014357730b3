// Command benchpair measures a change against its parent with the
// repository benchmark and writes the BENCH_<n>.json a performance claim
// cites. It exports both revisions into a new temporary directory (git
// archive: the committed files only, as the benchmark's own runner sees
// them), removed when it is done, and runs N alternating pairs of
//
//	bash benchmark/run.sh -workload W -seed S -trace 0
//
// per workload in each tree, seed S = -seed + pair, and reads each run's
// benchmark/out/W.trace0.json. It fails (exit 1) if a run is not correct
// or if the two runs of a pair differ in their Result digest or in any of
// the six simulated metrics: a change that moves what the network does is
// not a performance change. Then it prints, per (workload, metric), both
// sides' median and quartiles, the ratio of medians, the pairs the change
// won, lost and tied, the p-value of an exact two-sided sign test over the
// pairs, and a verdict: "better" (or "worse") only when the change won (or
// lost) at least nine in ten of all pairs run, ties counting for neither,
// the sign test gives p < 0.05, and the medians differ by more than the
// base runs' interquartile range; "unresolved" otherwise. Of ten pairs,
// 10/0 and 9/1 can resolve and 8/2 cannot. The benchmark directory is read
// and run, never written.
//
//	go run ./tools/benchpair -base HEAD^ -change HEAD -pairs 10 -seed 101 -out BENCH_37.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// simMetrics are what the modelled network did: every pair must agree on
// them exactly.
var simMetrics = []string{"goodput_kbps", "delivery_ratio", "latency_p50_ms", "latency_p99_ms", "radio_dc_pct", "credit_jain"}

// Run is one benchmark run's verdict, digest and end-to-end metrics.
type Run struct {
	Correct bool               `json:"correct"`
	Digest  string             `json:"result_digest"`
	Metrics map[string]float64 `json:"metrics"`
}

// Pair is one seed's run in each tree; BaseFirst records the order.
type Pair struct {
	Seed      int64 `json:"seed"`
	BaseFirst bool  `json:"base_first"`
	Base      Run   `json:"base"`
	Change    Run   `json:"change"`
}

// Workload is one workload's pairs.
type Workload struct {
	Name  string `json:"name"`
	Pairs []Pair `json:"pairs"`
}

// Row is one (workload, metric) line of the table.
type Row struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Better   string     `json:"better"` // lower | higher
	Base     [3]float64 `json:"base"`   // q1, median, q3
	Change   [3]float64 `json:"change"`
	Ratio    float64    `json:"ratio"` // change median / base median
	Wins     int        `json:"wins"`
	Losses   int        `json:"losses"`
	Ties     int        `json:"ties"`
	P        float64    `json:"p"`       // exact two-sided sign test
	Verdict  string     `json:"verdict"` // better | worse | unresolved
	// GapOverIQR: the medians differ by more than the base runs'
	// interquartile range.
	GapOverIQR bool `json:"gap_over_iqr"`
}

// File is what -out writes.
type File struct {
	Base      string            `json:"base"`
	Change    string            `json:"change"`
	Better    map[string]string `json:"better"` // metric → lower | higher, from BENCHMARK.json
	Workloads []Workload        `json:"workloads"`
	Summary   []Row             `json:"summary"`
}

func main() {
	var (
		base      = flag.String("base", "HEAD^", "parent revision")
		change    = flag.String("change", "HEAD", "changed revision")
		pairs     = flag.Int("pairs", 10, "alternating pairs per workload")
		seed      = flag.Int64("seed", 101, "seed of the first pair; pair i runs seed+i")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every one in BENCHMARK.json)")
		out       = flag.String("out", "", "write the samples and the table to this BENCH_<n>.json")
	)
	flag.Parse()
	f, err := measure(*base, *change, *pairs, *seed, *workloads)
	if f == nil {
		fatal(err)
	}
	f.Summary = summary(f)
	printTable(os.Stdout, f.Summary)
	if *out != "" {
		b, merr := json.MarshalIndent(f, "", " ")
		if merr == nil {
			merr = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if merr != nil {
			fatal(merr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchpair:", err)
	os.Exit(2)
}

// measure exports both trees into a new temporary directory, runs the
// pairs and removes the directory. A pair that simulated differently, or a
// run that is not correct, is recorded and reported in the error; a run
// that could not be read at all stops the measurement.
func measure(base, change string, pairs int, seed int64, only string) (*File, error) {
	work, err := os.MkdirTemp("", "benchpair")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	trees := map[string]string{"base": filepath.Join(work, "base"), "change": filepath.Join(work, "change")}
	for side, rev := range map[string]string{"base": base, "change": change} {
		if err := export(rev, trees[side]); err != nil {
			return nil, fmt.Errorf("exporting %s (%s): %v", side, rev, err)
		}
	}
	contract, err := readContract(filepath.Join(trees["change"], "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	names := contract.names
	if only != "" {
		names = strings.Split(only, ",")
	}
	f := &File{Base: base, Change: change, Better: contract.better}
	var bad []string
	for _, name := range names {
		w := Workload{Name: name}
		for i := 0; i < pairs; i++ {
			p := Pair{Seed: seed + int64(i), BaseFirst: i%2 == 0}
			order := []string{"base", "change"}
			if !p.BaseFirst {
				order = []string{"change", "base"}
			}
			for _, side := range order {
				fmt.Fprintf(os.Stderr, "benchpair: %s pair %d/%d seed %d: %s\n", name, i+1, pairs, p.Seed, side)
				r, err := runOnce(trees[side], name, p.Seed)
				if err != nil {
					return nil, fmt.Errorf("%s seed %d in the %s tree: %v", name, p.Seed, side, err)
				}
				if side == "base" {
					p.Base = r
				} else {
					p.Change = r
				}
			}
			bad = append(bad, p.mismatches(name)...)
			w.Pairs = append(w.Pairs, p)
		}
		f.Workloads = append(f.Workloads, w)
	}
	if len(bad) > 0 {
		return f, fmt.Errorf("%d problem(s):\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return f, nil
}

// mismatches lists what makes the pair unusable for a performance claim.
func (p Pair) mismatches(workload string) []string {
	var bad []string
	for side, r := range map[string]Run{"base": p.Base, "change": p.Change} {
		if !r.Correct {
			bad = append(bad, fmt.Sprintf("%s seed %d: the %s run is not correct", workload, p.Seed, side))
		}
	}
	if p.Base.Digest != p.Change.Digest {
		bad = append(bad, fmt.Sprintf("%s seed %d: Result digest %s against %s", workload, p.Seed, p.Change.Digest, p.Base.Digest))
	}
	for _, m := range simMetrics {
		if b, c := p.Base.Metrics[m], p.Change.Metrics[m]; b != c {
			bad = append(bad, fmt.Sprintf("%s seed %d: %s %v against %v", workload, p.Seed, m, c, b))
		}
	}
	return bad
}

// export writes the committed files of rev into dir, which must not exist.
func export(rev, dir string) error {
	if err := os.Mkdir(dir, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		untar.Wait()
		return err
	}
	return untar.Wait()
}

type contract struct {
	names  []string
	better map[string]string
}

// readContract reads the workload names and each end-to-end metric's
// direction from BENCHMARK.json.
func readContract(path string) (contract, error) {
	var c struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &c)
	}
	if err != nil {
		return contract{}, err
	}
	out := contract{better: map[string]string{}}
	for _, w := range c.Workloads {
		out.names = append(out.names, w.Name)
	}
	for _, m := range c.EndToEnd {
		out.better[m.Name] = m.Better
	}
	return out, nil
}

// runOnce runs one end-to-end benchmark run in tree, for as long as the
// benchmark's own default, and reads its output. run.sh exits 1 when the
// run is not correct; the output says so too.
func runOnce(tree, workload string, seed int64) (Run, error) {
	path := filepath.Join(tree, "benchmark", "out", workload+".trace0.json")
	os.Remove(path)
	cmd := exec.Command("bash", "benchmark/run.sh", "-workload", workload,
		"-seed", fmt.Sprint(seed), "-trace", "0")
	cmd.Dir = tree
	var stderr strings.Builder
	cmd.Stdout, cmd.Stderr = io.Discard, &stderr
	runErr := cmd.Run()
	var o struct {
		Correct bool   `json:"correct"`
		Digest  string `json:"result_digest"`
		Metrics []struct {
			Name   string  `json:"name"`
			Median float64 `json:"median"`
		} `json:"metrics"`
	}
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &o)
	}
	if err != nil {
		return Run{}, fmt.Errorf("%v (run.sh: %v)\n%s", err, runErr, stderr.String())
	}
	r := Run{Correct: o.Correct && runErr == nil, Digest: o.Digest, Metrics: map[string]float64{}}
	for _, m := range o.Metrics {
		r.Metrics[m.Name] = m.Median
	}
	return r, nil
}

// summary computes the table from the samples.
func summary(f *File) []Row {
	var rows []Row
	for _, w := range f.Workloads {
		if len(w.Pairs) == 0 {
			continue
		}
		var metrics []string
		for m := range w.Pairs[0].Base.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			r := Row{Workload: w.Name, Metric: m, Better: f.Better[m]}
			if r.Better == "" {
				r.Better = "lower"
			}
			var bs, cs []float64
			for _, p := range w.Pairs {
				b, c := p.Base.Metrics[m], p.Change.Metrics[m]
				bs, cs = append(bs, b), append(cs, c)
				switch {
				case b == c:
					r.Ties++
				case (c < b) == (r.Better == "lower"):
					r.Wins++
				default:
					r.Losses++
				}
			}
			r.Base, r.Change = quartiles(bs), quartiles(cs)
			if r.Base[1] != 0 {
				r.Ratio = r.Change[1] / r.Base[1]
			}
			r.GapOverIQR = math.Abs(r.Change[1]-r.Base[1]) > r.Base[2]-r.Base[0]
			r.P = signTest(r.Wins, r.Losses)
			r.Verdict = verdict(r, len(w.Pairs))
			rows = append(rows, r)
		}
	}
	return rows
}

// verdict resolves a row of n pairs: one side won at least nine in ten of
// them (ties count for neither), the sign test agrees (p < 0.05) and the
// medians differ by more than the base runs' interquartile range.
func verdict(r Row, n int) string {
	if r.P >= 0.05 || !r.GapOverIQR {
		return "unresolved"
	}
	switch {
	case 10*r.Wins >= 9*n:
		return "better"
	case 10*r.Losses >= 9*n:
		return "worse"
	}
	return "unresolved"
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// signTest is the exact two-sided sign test's p-value for wins against
// losses, ties dropped: the chance of a split at least this uneven when
// either side of a pair is as likely to win.
func signTest(wins, losses int) float64 {
	n, k := wins+losses, min(wins, losses)
	if n == 0 {
		return 1
	}
	tail, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= k; i++ {
		tail += c
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Min(1, 2*tail/math.Pow(2, float64(n)))
}

func printTable(w io.Writer, rows []Row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\t[q1, q3]\tchange median\t[q1, q3]\tratio\tW/L/T\tp\tverdict\t")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t[%.4g, %.4g]\t%.4g\t[%.4g, %.4g]\t%.3f\t%d/%d/%d\t%.3f\t%s\t\n",
			r.Workload, r.Metric, r.Base[1], r.Base[0], r.Base[2], r.Change[1], r.Change[0], r.Change[2],
			r.Ratio, r.Wins, r.Losses, r.Ties, r.P, r.Verdict)
	}
	tw.Flush()
}
