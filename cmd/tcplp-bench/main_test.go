package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// buildCLI builds the command into a temporary directory and returns a
// runner for it (exit status, stdout, stderr) and the directory.
func buildCLI(t *testing.T) (run func(args ...string) (code int, stdout, stderr string), dir string) {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the command with")
	}
	dir = t.TempDir()
	bin := filepath.Join(dir, "tcplp-bench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return func(args ...string) (int, string, string) {
		cmd := exec.Command(bin, args...)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		cmd.Run()
		if cmd.ProcessState == nil {
			t.Fatalf("%v: did not run", args)
		}
		return cmd.ProcessState.ExitCode(), o.String(), e.String()
	}, dir
}

// writeFile writes content to dir/name and returns the path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// probeSpec is a small two-flow run — anemometer readings and a bulk
// stream over a 3-node chain — that exercises every layer hook in well
// under a second.
const probeSpec = `{"name":"probe","topology":{"kind":"chain","nodes":3},
	"flows":[{"label":"anem","from":2,"to":0,"pattern":"anemometer","interval":"500ms","batch":2},
	         {"label":"bulk","from":1,"to":0}],
	"warmup":"1s","duration":"4s"}`

// TestCaptureWriteFailureExits1: a capture or profile file the run
// cannot write fails the invocation. /dev/full opens and then refuses
// every write, so each flag gets its file and loses what it writes: exit
// 1, with the error naming the file. (An events or journey file, and
// either profile, used to fail silently with exit 0.) A run that fails
// part-way, here at its manifest, still closes the other files whole: the
// CPU profile parses and the journey file is JSON. (They used to be left
// empty and without the closing bracket.)
func TestCaptureWriteFailureExits1(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes with")
	}
	run, dir := buildCLI(t)
	spec := writeFile(t, dir, "probe.json", probeSpec)
	for _, flag := range []string{"-events-out", "-journey-out", "-trace-out", "-cpuprofile", "-memprofile", "-manifest-out"} {
		code, _, stderr := run("-scenario", spec, flag, "/dev/full")
		if code != 1 || !strings.Contains(stderr, "/dev/full") {
			t.Errorf("%s /dev/full: exit %d, stderr %q; want exit 1 naming the file", flag, code, stderr)
		}
	}

	prof, jrny := filepath.Join(dir, "c.prof"), filepath.Join(dir, "j.json")
	code, _, stderr := run("-scenario", spec, "-manifest-out", "/dev/full", "-cpuprofile", prof, "-journey-out", jrny)
	if code != 1 || !strings.Contains(stderr, "/dev/full") {
		t.Errorf("-manifest-out /dev/full: exit %d, stderr %q; want exit 1 naming the file", code, stderr)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(goTool, "tool", "pprof", "-raw", "-symbolize=none", prof).CombinedOutput(); err != nil {
		t.Errorf("the CPU profile of the failed run does not parse: %v\n%s", err, out)
	}
	b, err := os.ReadFile(jrny)
	if err != nil || !json.Valid(b) {
		t.Errorf("the journey file of the failed run is not JSON (%d bytes, %v)", len(b), err)
	}
}

// TestRefusedFlagsKeepOutputFiles: an invocation refused for its flags or
// its spec — in either mode; -exp all checks every experiment's rewritten
// file first — exits 1 before it creates a file, so an earlier file at an
// output path (here a journey trace and a CPU profile) keeps its bytes.
// A flag the mode would ignore is refused too: -format under -exp, -list
// with anything.
func TestRefusedFlagsKeepOutputFiles(t *testing.T) {
	run, dir := buildCLI(t)
	spec := writeFile(t, dir, "probe.json", probeSpec)
	const earlier = "an earlier trace\n"
	out := writeFile(t, dir, "j.json", earlier)
	ev := writeFile(t, dir, "e.ndjson", earlier)
	for _, args := range [][]string{
		{"-scenario", spec, "-journey-out", out, "-metrics-interval", "1s"},
		{"-scenario", spec, "-journey-out", out, "-events-layers", "tcp"},
		{"-scenario", spec, "-journey-out", out, "-events-flow", "anem"},
		{"-scenario", spec, "-journey-out", out, "-events-out", ev, "-metrics-interval", "bogus"},
		{"-scenario", spec, "-journey-out", out, "-events-out", ev, "-duration", "bogus"},
		{"-scenario", spec, "-journey-out", out, "-events-out", ev, "-warmup", "-1s"},
		{"-scenario", spec, "-journey-out", out, "-events-out", ev, "-format", "bogus"},
		{"-scenario", spec, "-journey-out", out, "-events-out", ev, "-window", "3000000"},
		{"-scenario", filepath.Join(dir, "missing.json"), "-journey-out", out},
		{"-scenario", spec, "-cpuprofile", out, "-metrics-interval", "1s"},
		{"-scenario", spec, "-journey-out", out, "-scale", "0"},
		{"-scenario", spec, "-exp", "fig4", "-journey-out", out},
		{"-scenario", spec, "-journey-out", out, "-format", "csv", "-markdown"},
		{"-scenario", spec, "-journey-out", out, "-format", "json", "-ci"},
		{"-exp", "nosuch", "-cpuprofile", out},
		{"-exp", "fig4", "-journey-out", out, "-events-out", ev, "-window", "3000000"},
		{"-exp", "all", "-journey-out", out, "-seeds", "5000"},
		{"-exp", "table5", "-journey-out", out, "-format", "bogus"},
		{"-exp", "fig4", "-journey-out", out, "-format", "json"},
		{"-exp", "fig4", "-journey-out", out, "-format", "csv"},
		{"-scenario", spec, "-journey-out", out, "-list"},
		{"-exp", "fig4", "-journey-out", out, "-list"},
	} {
		code, stdout, stderr := run(args...)
		if code != 1 || stdout != "" {
			t.Errorf("%v: exit %d, stdout %q; want a refusal (exit 1, nothing on stdout)\n%s", args, code, stdout, stderr)
		}
		for _, path := range []string{out, ev} {
			if got, err := os.ReadFile(path); err != nil || string(got) != earlier {
				t.Fatalf("%v: %s now holds %q (err %v), want the earlier %q", args, filepath.Base(path), got, err, earlier)
			}
		}
	}
}

// TestCaptureIsBitNeutral: every capture flag, alone and all together,
// leaves -format json byte-equal to the plain run's, event counts
// included, once the journey blocks -journey adds are dropped. Nothing
// an instrument does enters the engine.
func TestCaptureIsBitNeutral(t *testing.T) {
	run, dir := buildCLI(t)
	spec := writeFile(t, dir, "probe.json", probeSpec)
	f := func(name string) string { return filepath.Join(dir, name) }
	output := func(capture ...string) string {
		args := append([]string{"-scenario", spec, "-workers", "1", "-format", "json"}, capture...)
		code, stdout, stderr := run(args...)
		if code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, stderr)
		}
		var v any
		if err := json.Unmarshal([]byte(stdout), &v); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		dropJourneys(v)
		b, _ := json.Marshal(v)
		return string(b)
	}
	plain := output()
	if !strings.Contains(plain, `"events":`) {
		t.Fatalf("plain run reports no event count: %s", plain)
	}
	all := []string{"-journey", "-journey-out", f("all.json"), "-events-out", f("all.ndjson"),
		"-events-layers", "tcp", "-events-flow", "anem", "-metrics-interval", "1s", "-trace-out", f("all.pcapng")}
	for _, capture := range [][]string{
		{"-journey"},
		{"-journey-out", f("j.json")},
		{"-events-out", f("e.ndjson")},
		{"-events-out", f("l.ndjson"), "-events-layers", "tcp", "-events-flow", "anem"},
		{"-events-out", f("m.ndjson"), "-metrics-interval", "1s"},
		{"-trace-out", f("p.pcapng")},
		{"-manifest-out", f("runs.ndjson")},
		all,
	} {
		if got := output(capture...); got != plain {
			t.Errorf("%v perturbed the run:\nplain:    %s\ncaptured: %s", capture, plain, got)
		}
	}
	// One manifest per run, for the run named.
	b, err := os.ReadFile(f("runs.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Spec   string
		Phases []struct{ Name string }
		Events uint64
	}
	if lines := bytes.Count(b, []byte("\n")); lines != 1 || json.Unmarshal(b, &m) != nil || m.Spec != "probe" || len(m.Phases) != 3 || m.Events == 0 {
		t.Errorf("-manifest-out wrote %q, want one manifest of the probe run", b)
	}
	if b, err := os.ReadFile(f("m.ndjson")); err != nil || bytes.Count(b, []byte(`"type":"metrics"`)) != 4 {
		t.Errorf("-metrics-interval 1s over a 4 s window: want 4 samples in the event file (err %v)", err)
	}
}

// dropJourneys deletes every "journey" key from a decoded JSON value.
func dropJourneys(v any) {
	switch v := v.(type) {
	case map[string]any:
		delete(v, "journey")
		for _, x := range v {
			dropJourneys(x)
		}
	case []any:
		for _, x := range v {
			dropJourneys(x)
		}
	}
}

// TestWindowFlagBounded: -window over the per-connection buffer bound at
// the segment size a cell runs with is refused, in both modes, with exit
// status 1, nothing on stdout and a message naming the flag and the
// limit. (Unchecked, a multi-million segment window asked each
// connection for gigabytes of buffer and the process died of "out of
// memory".) The bound is per segment size, not the worst case: at the
// default 5-frame segments a window of 1000, and the limit itself, run.
func TestWindowFlagBounded(t *testing.T) {
	run, dir := buildCLI(t)
	spec := writeFile(t, dir, "chain.json", `{"name":"c","topology":{"kind":"chain","nodes":2},"flows":[{"from":1,"to":0}]}`)
	limitRe := regexp.MustCompile(`-window (\d+) is over the limit of (\d+) segments at seg_frames (\d+)`)
	short := []string{"-duration", "1s", "-warmup", "0s"}
	var scenarioLimit int
	for _, c := range []struct {
		args      []string
		segFrames int // the first cell refused: the chain's default, fig4's smallest MSS
	}{
		{[]string{"-scenario", spec, "-window", "3000000"}, 5},
		{[]string{"-exp", "fig4", "-window", "3000000"}, 2},
	} {
		code, stdout, stderr := run(c.args...)
		m := limitRe.FindStringSubmatch(stderr)
		if code != 1 || m == nil || m[1] != "3000000" || m[3] != strconv.Itoa(c.segFrames) {
			t.Fatalf("%v: exit %d, stderr %q; want exit 1 naming -window 3000000 and the limit at seg_frames %d",
				c.args, code, stderr, c.segFrames)
		}
		if stdout != "" {
			t.Errorf("%v: something ran before the refusal:\n%s", c.args, stdout)
		}
		if c.args[0] == "-scenario" {
			scenarioLimit, _ = strconv.Atoi(m[2])
		}
	}
	// Above the limit at the largest segment size (504 at 20 frames), but
	// inside the limit at the chain's 5 frames.
	for _, w := range []int{1000, scenarioLimit} {
		args := append([]string{"-scenario", spec, "-window", strconv.Itoa(w)}, short...)
		if code, stdout, stderr := run(args...); code != 0 || stdout == "" {
			t.Errorf("%v: exit %d, want a run\n%s", args, code, stderr)
		}
	}
	args := append([]string{"-scenario", spec, "-window", strconv.Itoa(scenarioLimit + 1)}, short...)
	if code, _, stderr := run(args...); code != 1 || !limitRe.MatchString(stderr) {
		t.Errorf("%v: exit %d, want the refusal one past the limit\n%s", args, code, stderr)
	}
}

// TestRewriteFlagsBothModes: -scale, -seeds and -window rewrite a spec
// file the same way under -scenario and under -exp, whose tables are
// rendered from exactly those cells — as is the -scenario summary, with
// -markdown too; a rewrite no cell takes is noted; and the capture flags
// and -manifest-out work for experiments too.
func TestRewriteFlagsBothModes(t *testing.T) {
	run, dir := buildCLI(t)
	flags := []string{"-scale", "0.05", "-seeds", "2", "-window", "8", "-workers", "1"}
	fig4 := filepath.Join("..", "..", "examples", "scenarios", "paper", "fig4.json")
	code, stdout, stderr := run(append([]string{"-scenario", fig4, "-format", "json"}, flags...)...)
	if code != 0 {
		t.Fatalf("-scenario fig4.json: exit %d\n%s", code, stderr)
	}
	var cells []struct {
		Spec struct {
			Name, Warmup, Duration string
			Seeds                  []int64
			Net                    struct {
				WindowSegs int `json:"window_segs"`
			}
		}
		Runs []struct {
			Flows []struct {
				GoodputKbps float64 `json:"goodput_kbps"`
			}
		}
	}
	if err := json.Unmarshal([]byte(stdout), &cells); err != nil || len(cells) != 14 {
		t.Fatalf("-scenario fig4.json: %d cells (err %v), want 14", len(cells), err)
	}
	for _, c := range cells {
		s := c.Spec
		if s.Warmup != "5s" || s.Duration != "5s" || len(s.Seeds) != 2 || s.Seeds[1] != s.Seeds[0]+99991 || s.Net.WindowSegs != 8 {
			t.Fatalf("rewritten cell %+v: want 5s windows, seeds 99991 apart, window 8", s)
		}
	}
	code, stdout, stderr = run(append([]string{"-exp", "fig4"}, flags...)...)
	if code != 0 {
		t.Fatalf("-exp fig4: exit %d\n%s", code, stderr)
	}
	// Row 2 frames, uplink: the first cell's two runs as mean ± σ.
	a, b := cells[0].Runs[0].Flows[0].GoodputKbps, cells[0].Runs[1].Flows[0].GoodputKbps
	mean, sd := (a+b)/2, math.Abs(a-b)/2 // σ over the population, as stats.MeanStdDev
	want := fmt.Sprintf("%.1f ± %.1f", mean, sd)
	if !strings.Contains(stdout, want) {
		t.Errorf("-exp fig4 table lacks the uplink cell %q of the -scenario run:\n%s", want, stdout)
	}
	// -manifest-out writes one manifest per run of those cells, in cell and
	// seed order, and prints the same tables.
	manifests := filepath.Join(dir, "runs.ndjson")
	code, withManifests, stderr := run(append([]string{"-exp", "fig4", "-manifest-out", manifests}, flags...)...)
	if code != 0 || withManifests != stdout {
		t.Errorf("-exp fig4 -manifest-out: exit %d, stdout differs from the plain run's:\n%s%s", code, withManifests, stderr)
	}
	var runs []string
	for _, c := range cells {
		for _, seed := range c.Spec.Seeds {
			runs = append(runs, fmt.Sprintf("%s seed %d", c.Spec.Name, seed))
		}
	}
	var got []string
	nd, err := os.ReadFile(manifests)
	for dec := json.NewDecoder(bytes.NewReader(nd)); err == nil && dec.More(); {
		var m struct {
			Spec string
			Seed int64
		}
		err = dec.Decode(&m)
		got = append(got, fmt.Sprintf("%s seed %d", m.Spec, m.Seed))
	}
	if err != nil || !slices.Equal(got, runs) {
		t.Errorf("-exp fig4 -manifest-out wrote manifests of %q (err %v), want %q", got, err, runs)
	}
	// The -scenario summary renders the same runs through the same cells.
	code, stdout, stderr = run(append([]string{"-scenario", fig4}, flags...)...)
	if code != 0 || !strings.Contains(stdout, want) {
		t.Errorf("-scenario fig4.json summary: exit %d, lacks the uplink cell %q:\n%s%s", code, want, stdout, stderr)
	}
	code, stdout, stderr = run("-scenario", fig4, "-scale", "0.05", "-markdown")
	if code != 0 || !strings.Contains(stdout, "| Flow | Protocol | Variant | kb/s |") {
		t.Errorf("-scenario fig4.json -markdown: exit %d, no markdown table:\n%s%s", code, stdout, stderr)
	}

	code, stdout, stderr = run("-exp", "fig8", "-scale", "0.05", "-duration", "2s", "-journey")
	if code != 0 || !strings.Contains(stdout, "journey conformance:") {
		t.Errorf("-exp fig8 -journey: exit %d, no conformance line\n%s%s", code, stdout, stderr)
	}
	for _, c := range []struct{ exp, flag, value string }{
		{"fig14", "-window", "8"},       // both cells set window_segs 6
		{"pacing", "-variant", "cubic"}, // both cells sweep variants
	} {
		code, _, stderr = run("-exp", c.exp, "-scale", "0.05", "-duration", "2s", c.flag, c.value)
		note := fmt.Sprintf("note: %s sets its own %s everywhere; %s changes nothing", c.exp, c.flag[1:], c.flag)
		if code != 0 || !strings.Contains(stderr, note) {
			t.Errorf("-exp %s %s %s: exit %d, want the note %q\n%s", c.exp, c.flag, c.value, code, note, stderr)
		}
	}
}
