package main

import (
	"fmt"
	"strings"

	"tcplp/internal/model"
	"tcplp/internal/scenario"
)

// expectation is one one-sided correctness check of a workload file: a
// floor at 0.85x the value measured when the benchmark was defined, or
// an ordering the paper claims. There are no upper bands and no byte
// goldens, so a change that legitimately improves the protocol passes.
type expectation struct {
	// Metric is goodput_kbps, delivery_ratio, segment_loss, credit_jain
	// or ceiling_fraction, averaged over the runs Cell selects.
	Metric string `json:"metric"`
	// Cell selects runs whose cell name has this prefix ("" selects all).
	Cell string `json:"cell"`
	// Min is the floor the metric must reach.
	Min *float64 `json:"min,omitempty"`
	// Below names a cell whose value of the same metric must be strictly
	// greater than this cell's.
	Below string `json:"below,omitempty"`
}

// check returns "" when the expectation holds over one repetition's runs.
func (e *expectation) check(runs []*scenario.Result) string {
	v, err := cellMetric(runs, e.Cell, e.Metric)
	if err != nil {
		return err.Error()
	}
	if e.Min != nil && !(v >= *e.Min) {
		return fmt.Sprintf("%s of %q = %.4g, below its floor %.4g", e.Metric, e.Cell, v, *e.Min)
	}
	if e.Below != "" {
		other, err := cellMetric(runs, e.Below, e.Metric)
		if err != nil {
			return err.Error()
		}
		if !(v < other) {
			return fmt.Sprintf("%s of %q = %.4g is not below that of %q = %.4g", e.Metric, e.Cell, v, e.Below, other)
		}
	}
	return ""
}

// cellMetric averages one metric over the runs of the cells whose name
// starts with cell.
func cellMetric(runs []*scenario.Result, cell, name string) (float64, error) {
	var sum float64
	n := 0
	for _, run := range runs {
		if !strings.HasPrefix(run.Name, cell) {
			continue
		}
		var v float64
		switch name {
		case "goodput_kbps":
			v = run.AggregateKbps
		case "delivery_ratio":
			for i := range run.Flows {
				v += delivery(run, &run.Flows[i]) / float64(len(run.Flows))
			}
		case "segment_loss":
			v = segmentLoss(run, &run.Flows[0])
		case "credit_jain":
			v = fairness(run)
		case "ceiling_fraction":
			v = ceilingFraction(run)
		default:
			return 0, fmt.Errorf("unknown expectation metric %q", name)
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("expectation names cell %q, which no run matches", cell)
	}
	return sum / float64(n), nil
}

// defaultSegFrames is the scenario default MSS in frames; no benchmark
// workload overrides it.
const defaultSegFrames = 5

// ceilingFraction is a run's best single-flow goodput over the paper's
// single-hop upper bound at the same segment size (section 6.4: TCPlp
// reaches within 25% of it).
func ceilingFraction(run *scenario.Result) float64 {
	best := 0.0
	for i := range run.Flows {
		f := &run.Flows[i]
		if f.MSS <= 0 {
			continue
		}
		if frac := f.GoodputKbps * 1000 / model.SingleHopCeiling(defaultSegFrames, f.MSS); frac > best {
			best = frac
		}
	}
	return best
}
