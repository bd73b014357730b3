package scenario

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csvHeader lists the per-run flow columns emitted by WriteCSV. New
// columns must append at the end: tools/plot.gp addresses columns by
// index.
var csvHeader = []string{
	"scenario", "seed", "flow", "variant", "protocol", "window_segs", "pattern",
	"goodput_kbps", "bytes", "sent_bytes", "retransmits", "timeouts", "fast_rtx",
	"srtt_ms", "mean_rtt_ms", "median_rtt_ms",
	"delivery_ratio", "lat_p50_ms", "lat_p99_ms",
	"radio_dc", "cpu_dc", "jain", "aggregate_kbps",
	"e2e_delivery_ratio", "credit_share",
	"rto_ms",
	"phy_frames_sent", "mac_csma_failures", "mac_data_dropped",
	"frag_timeouts", "ip_queue_drops", "tcp_segs_in",
}

// WriteCSV emits one row per (spec, seed, flow); the run-level Jain
// index and aggregate goodput repeat on each of the run's rows.
func WriteCSV(w io.Writer, results []*SpecResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, sr := range results {
		for _, run := range sr.Runs {
			for _, fl := range run.Flows {
				rec := []string{
					run.Name, strconv.FormatInt(run.Seed, 10),
					fl.Label, fl.Variant, fl.Protocol, strconv.Itoa(fl.WindowSegs), fl.Pattern,
					f(fl.GoodputKbps), strconv.Itoa(fl.Bytes), strconv.Itoa(fl.SentBytes),
					u(fl.Retransmits), u(fl.Timeouts), u(fl.FastRtx),
					f(fl.SRTTms), f(fl.MeanRTTms), f(fl.MedianRTTms),
					f(fl.DeliveryRatio), f(fl.LatencyP50ms), f(fl.LatencyP99ms),
					f(fl.RadioDC), f(fl.CPUDC),
					f(run.Jain), f(run.AggregateKbps),
					f(fl.E2EDeliveryRatio), f(fl.CreditShare),
					f(fl.RTOms),
					f(run.layer("phy", "frames_sent")), f(run.layer("mac", "csma_failures")),
					f(run.layer("mac", "data_dropped")), f(run.layer("sixlowpan", "reassembly_timeouts")),
					f(run.layer("ip", "queue_drops")), f(run.layer("tcp", "segs_in")),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the full result set — specs and per-seed runs — as
// indented JSON.
func WriteJSON(w io.Writer, results []*SpecResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// Waterfall renders the latency waterfall of each flow of the spec's
// first run that carries a journey report (-journey) under a header; ""
// when none does. One seed keeps it bounded: the full per-seed
// attribution is in the JSON output.
func (sr *SpecResult) Waterfall() string {
	var b strings.Builder
	r0 := sr.Runs[0]
	for _, fl := range r0.Flows {
		if fl.Journey == nil {
			continue
		}
		if b.Len() == 0 {
			fmt.Fprintf(&b, "  packet journeys (seed %d):\n", r0.Seed)
		}
		for _, line := range strings.Split(strings.TrimRight(fl.Journey.Waterfall(), "\n"), "\n") {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	return b.String()
}
