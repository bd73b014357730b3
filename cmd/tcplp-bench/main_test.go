package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// TestWindowFlagBounded: -window over the per-connection buffer bound at
// the segment size a cell runs with is refused, in both modes, with exit
// status 1, nothing on stdout and a message naming the flag and the
// limit. (Unchecked, a multi-million segment window asked each
// connection for gigabytes of buffer and the process died of "out of
// memory".) The bound is per segment size, not the worst case: at the
// default 5-frame segments a window of 1000, and the limit itself, run.
func TestWindowFlagBounded(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH to build the command with")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tcplp-bench")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	spec := filepath.Join(dir, "chain.json")
	if err := os.WriteFile(spec, []byte(`{"name":"c","topology":{"kind":"chain","nodes":2},"flows":[{"from":1,"to":0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (code int, stdout, stderr string) {
		cmd := exec.Command(bin, args...)
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		cmd.Run()
		if cmd.ProcessState == nil {
			t.Fatalf("%v: did not run", args)
		}
		return cmd.ProcessState.ExitCode(), o.String(), e.String()
	}
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
