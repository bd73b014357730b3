package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// declaration mirrors BENCHMARK.json at the repository root.
type declaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload's two runs in-process at smoke size and
// checks that what the harness emits is exactly what BENCHMARK.json
// declares, and that no operation fails.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads; skipped under -short")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declaration
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, harness default -seconds = %d", decl.RunSeconds, defaultSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		file, err := loadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if file.Why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json and the workload file give different reasons", w.Name)
		}
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness runs %v", declared, workloadNames)
	}

	want := [2]map[string]string{{}, {}}
	for _, m := range decl.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloadNames {
		if !name.MatchString(w) {
			t.Errorf("workload name %q has characters outside [A-Za-z0-9_.-]", w)
		}
		for trace := 0; trace <= 1; trace++ {
			out, err := runWorkload(w, trace, options{seed: 1, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.Failed != 0 || !out.Correct {
				t.Errorf("%s -trace %d: %d of %d operations failed: %s", w, trace, out.Failed, out.Attempted, out.FirstFailure)
			}
			got := map[string]string{}
			for _, m := range out.Metrics {
				if !name.MatchString(m.Name) {
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				}
				if _, dup := got[m.Name]; dup {
					t.Errorf("%s -trace %d emits %s twice", w, trace, m.Name)
				}
				got[m.Name] = m.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s -trace %d: emitted and declared metrics differ:\n only emitted: %v\n only declared: %v",
					w, trace, diff(got, want[trace]), diff(want[trace], got))
			}
			if _, err := json.Marshal(out.resultLine()); err != nil {
				t.Errorf("%s -trace %d: result line does not marshal: %v", w, trace, err)
			}
		}
	}
}

// diff lists "name unit" entries of a that b lacks or gives another unit.
func diff(a, b map[string]string) []string {
	var out []string
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			out = append(out, k+" "+v)
		}
	}
	sort.Strings(out)
	return out
}

func TestGenerateIsSeeded(t *testing.T) {
	for _, name := range workloadNames {
		w, err := loadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := w.generate(3, fullWindow, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.generate(3, fullWindow, false)
		c, _ := w.generate(4, fullWindow, false)
		if string(a) != string(b) {
			t.Errorf("%s: the same seed generated different spec bytes", name)
		}
		if string(a) == string(c) {
			t.Errorf("%s: seeds 3 and 4 generated the same spec bytes", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, med, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || med != 24 || q3 != 160 {
		t.Errorf("quartiles = %v, %v, %v; Python gives 3.5, 24.0, 160.0", q1, med, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "run", StartNs: 10, EndNs: 70},
		{ID: 3, Parent: 1, Name: "run", StartNs: 70, EndNs: 90},
	}
	got := map[string]selfTime{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st
	}
	if st := got["rep"]; st.SelfS != 20e-9 || st.TotalS != 100e-9 {
		t.Errorf("rep self/total = %v/%v, want 20ns/100ns", st.SelfS, st.TotalS)
	}
	if st := got["run"]; st.Calls != 2 || st.SelfS != 80e-9 {
		t.Errorf("run calls/self = %d/%v, want 2/80ns", st.Calls, st.SelfS)
	}
}
