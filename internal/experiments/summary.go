package experiments

import (
	"fmt"
	"slices"

	"tcplp/internal/scenario"
)

// Summary renders one spec's runs (a tcplp-bench -scenario cell) as a
// table printed like an experiment's: one row per flow, the run-level
// numbers as notes. Delivery and latency apply to anemometer flows and
// the end-to-end columns to gateway flows; other flows show "-" there.
func Summary(o Opts, sr *scenario.SpecResult) *Table {
	name := sr.Spec.Name
	if name == "" {
		name = "(unnamed)"
	}
	flows := sr.Runs[0].Flows
	rows := make([][]*scenario.SpecResult, len(flows))
	for i := range rows {
		rows[i] = []*scenario.SpecResult{sr}
	}
	anem := func(f scenario.FlowResult) bool { return f.Pattern == scenario.PatternAnemometer }
	gw := func(f scenario.FlowResult) bool { return f.Gateway }
	all := func(scenario.FlowResult) bool { return true }
	// per reads a first-flow metric off row i's flow, where it applies.
	per := func(applies func(scenario.FlowResult) bool, head string, metric func(scenario.Result) float64, f func(float64) string) column {
		return column{head, func(o Opts, i int, row []*scenario.SpecResult) string {
			if !applies(flows[i]) {
				return "-"
			}
			return o.cell(series(row[0], ofFlow(i, metric)), f)
		}}
	}
	cols := []column{
		{"Flow", func(_ Opts, i int, _ []*scenario.SpecResult) string { return flows[i].Label }},
		{"Protocol", func(_ Opts, i int, _ []*scenario.SpecResult) string { return flows[i].Protocol }},
		{"Variant", func(_ Opts, i int, _ []*scenario.SpecResult) string { return flows[i].Variant }},
		per(all, "kb/s", goodput, f1), per(all, "Rtx", retransmits, f1), per(all, "RTOs", timeouts, f1),
		per(all, "SRTT ms", srtt, f0), per(all, "Radio DC", radioDC, pct2),
	}
	if slices.ContainsFunc(flows, anem) {
		cols = append(cols, per(anem, "Delivery", delivery, pct), per(anem, "Lat p50 ms", latP50, f0), per(anem, "Lat p99 ms", latP99, f0))
	}
	if slices.ContainsFunc(flows, gw) {
		cols = append(cols, per(gw, "e2e", e2eDelivery, pct), per(gw, "Share", creditShare, f3))
	}
	notes := []string{fmt.Sprintf("jain %s, aggregate %s kb/s", o.cell(series(sr, jain), f3), o.cell(series(sr, aggKbps), f1))}
	if sr.Runs[0].Gateway != nil {
		notes = append(notes, fmt.Sprintf("gateway: credit jain %s, wan drops %s, queue max %s",
			o.cell(series(sr, creditJain), f3), o.cell(series(sr, wanDrops), f1), o.cell(series(sr, wanQueueMax), f1)))
	}
	return pivot(o, "scenario "+name, fmt.Sprintf("%d flow(s) x %d seed(s)", len(flows), len(sr.Runs)), rows, cols, notes...)
}
