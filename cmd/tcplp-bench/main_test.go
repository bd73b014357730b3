package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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
	         {"label":"bulk","from":1,"to":0,"port":81}],
	"warmup":"1s","duration":"4s"}`

// TestRefusedFlagsKeepOutputFiles: an invocation refused for its flags or
// its spec exits 1 before it creates a file, so an earlier file at an
// output path (here a journey trace and a CPU profile) keeps its bytes.
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
		{"-exp", "nosuch", "-cpuprofile", out},
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
		all,
	} {
		if got := output(capture...); got != plain {
			t.Errorf("%v perturbed the run:\nplain:    %s\ncaptured: %s", capture, plain, got)
		}
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
