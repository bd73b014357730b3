package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func readFile(t *testing.T, path string) *File {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return &f
}

// The verdict logic on canned samples (testdata/samples.json; no benchmark
// runs): a change measured against itself is unresolved on every metric,
// 10/0 is resolved and 8/2 is not. 17/3 of 20 pairs is not, although the
// sign test alone would resolve it, since 17 is under nine in ten; nor is a
// 10/0 whose gap between medians is inside the base runs' interquartile
// range.
func TestVerdicts(t *testing.T) {
	f := readFile(t, "testdata/samples.json")
	rows := map[string]Row{}
	for _, r := range summary(f) {
		rows[r.Workload+" "+r.Metric] = r
		if r.Workload == "self" && r.Verdict != "unresolved" {
			t.Errorf("self %s: %s (%d/%d/%d, p %.3f), want unresolved", r.Metric, r.Verdict, r.Wins, r.Losses, r.Ties, r.P)
		}
	}
	for _, c := range []struct {
		key, verdict    string
		wins, losses, p float64
	}{
		{"ten_zero wall_s", "better", 10, 0, 0.002},
		{"ten_zero allocs_k", "better", 10, 0, 0.002},
		{"ten_zero goodput_kbps", "unresolved", 0, 0, 1},
		{"eight_two wall_s", "unresolved", 8, 2, 0.109},
		{"seventeen_three wall_s", "unresolved", 17, 3, 0.003},
		{"ten_zero_narrow wall_s", "unresolved", 10, 0, 0.002},
	} {
		r, ok := rows[c.key]
		if !ok {
			t.Fatalf("no row for %s", c.key)
		}
		if r.Verdict != c.verdict || float64(r.Wins) != c.wins || float64(r.Losses) != c.losses || math.Abs(r.P-c.p) > 0.0005 {
			t.Errorf("%s: %s, %d/%d, p %.4f; want %s, %v/%v, p %.3f", c.key, r.Verdict, r.Wins, r.Losses, r.P, c.verdict, c.wins, c.losses, c.p)
		}
	}
	if r := rows["ten_zero wall_s"]; !r.GapOverIQR || math.Abs(r.Ratio-1.345/1.545) > 1e-9 {
		t.Errorf("ten_zero wall_s: ratio %v, gap over IQR %v", r.Ratio, r.GapOverIQR)
	}
	if r := rows["seventeen_three wall_s"]; !r.GapOverIQR {
		t.Errorf("seventeen_three wall_s: gap within the IQR; the case should turn on the 9/10 rule alone")
	}
	if r := rows["ten_zero_narrow wall_s"]; r.GapOverIQR {
		t.Errorf("ten_zero_narrow wall_s: gap over the IQR")
	}
}

// The sign test's p-values at the splits the verdicts turn on.
func TestSignTest(t *testing.T) {
	for _, c := range []struct {
		w, l int
		p    float64
	}{{10, 0, 2.0 / 1024}, {9, 1, 22.0 / 1024}, {8, 2, 112.0 / 1024}, {5, 5, 1}, {0, 0, 1}, {1, 9, 22.0 / 1024}} {
		if got := signTest(c.w, c.l); math.Abs(got-c.p) > 1e-12 {
			t.Errorf("signTest(%d, %d) = %v, want %v", c.w, c.l, got, c.p)
		}
	}
}

// A pair whose runs simulated differently, or a run that is not correct,
// is named.
func TestMismatches(t *testing.T) {
	p := readFile(t, "testdata/samples.json").Workloads[0].Pairs[0]
	if bad := p.mismatches("self"); len(bad) != 0 {
		t.Fatalf("an identical pair reported %v", bad)
	}
	p.Change.Digest = "d2"
	p.Change.Metrics = map[string]float64{}
	for k, v := range p.Base.Metrics {
		p.Change.Metrics[k] = v
	}
	p.Change.Metrics["credit_jain"] = 0.5
	p.Base.Correct = false
	if bad := p.mismatches("self"); len(bad) != 3 {
		t.Fatalf("reported %q, want the incorrect run, the digest and credit_jain", bad)
	}
}
