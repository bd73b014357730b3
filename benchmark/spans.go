package main

import (
	"sort"
	"time"
)

// span is one timed call the harness made into a layer. Spans are
// recorded from outside the program — around the harness's own calls —
// and kept in memory until the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"` // since the process's first span
	EndNs    int64  `json:"end_ns"`
}

// spanLog records nested spans of one single-goroutine workload run.
type spanLog struct {
	workload string
	rep      int
	t0       time.Time
	spans    []span
	open     []int // stack of open span indexes
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open one; the returned func
// closes it and reports its duration.
func (l *spanLog) begin(name string) (end func() time.Duration) {
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.spans[l.open[n-1]].ID
	}
	i := len(l.spans)
	l.spans = append(l.spans, span{
		ID: i + 1, Parent: parent, Name: name, Workload: l.workload, Rep: l.rep,
		StartNs: time.Since(l.t0).Nanoseconds(),
	})
	l.open = append(l.open, i)
	return func() time.Duration {
		s := &l.spans[i]
		s.EndNs = time.Since(l.t0).Nanoseconds()
		l.open = l.open[:len(l.open)-1]
		return time.Duration(s.EndNs - s.StartNs)
	}
}

// selfTime is a span name's total duration minus the part its child
// spans cover, summed over every span of that name.
type selfTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func selfTimes(spans []span) []selfTime {
	children := map[int]int64{}
	for _, s := range spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNs - s.StartNs
		st.Calls++
		st.TotalS += float64(d) / 1e9
		st.SelfS += float64(d-children[s.ID]) / 1e9
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
