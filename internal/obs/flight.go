package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"tcplp/internal/sim"
)

// FlightRecorder keeps a bounded ring of the most recent trace events
// for each flow it is bound to, like an aircraft flight recorder: cheap
// enough to leave on, consulted only when something goes wrong. The
// scenario runner binds each flow's source node, feeds the recorder as
// an ordinary Sink, and dumps a flow's ring when the flow stalls or the
// run ends below its delivery threshold — turning "the cell went to
// zero" into a concrete event timeline.
type FlightRecorder struct {
	cap   int
	flows map[int]*flightRing // by bound node id
}

type flightRing struct {
	label  string
	events []Event // ring storage
	next   int     // write cursor once full
	// unanswered is set by a transport attempt and cleared by progress;
	// since is the oldest attempt still waiting.
	unanswered bool
	since      sim.Time
}

// isProgress reports whether e advances its flow — a received segment,
// a completed exchange, a reassembled datagram — as opposed to merely
// trying (sends, backoffs, retransmissions). The stall checker keys off
// this: a flow retransmitting into a black hole emits plenty of events
// but makes no progress.
func isProgress(e Event) bool {
	switch e.Kind {
	case TCPRecv, CoAPRTO, FragReassembled:
		return true
	}
	return false
}

// isAttempt reports whether e is the flow's transport trying to move
// data — a payload segment, a retransmission timeout, a reliable
// datagram handed down or retransmitted — and so expecting an answer.
// MAC and PHY events do not count: a relay emits them for other flows'
// traffic, and an idle flow emits none of its own.
func isAttempt(e Event) bool {
	switch e.Kind {
	case TCPSend:
		return e.Len > 0
	case TCPRTO, CoAPRtx:
		return true
	case JourneyData:
		return e.Len != 0 // a reliable transfer; an unreliable one expects no answer
	}
	return false
}

// NewFlightRecorder returns a recorder keeping up to ringCap events per
// bound flow.
func NewFlightRecorder(ringCap int) *FlightRecorder {
	return &FlightRecorder{cap: ringCap, flows: map[int]*flightRing{}}
}

// Bind associates node's events with a flow label. Events from unbound
// nodes are ignored.
func (f *FlightRecorder) Bind(node int, label string) {
	f.flows[node] = &flightRing{label: label, events: make([]Event, 0, f.cap)}
}

// Record implements Sink.
func (f *FlightRecorder) Record(e Event) {
	r := f.flows[e.Node]
	if r == nil {
		return
	}
	if isProgress(e) {
		r.unanswered = false
	} else if !r.unanswered && isAttempt(e) {
		r.unanswered, r.since = true, e.T
	}
	if len(r.events) < cap(r.events) {
		r.events = append(r.events, e)
		return
	}
	r.events[r.next] = e
	r.next++
	if r.next == cap(r.events) {
		r.next = 0
	}
}

// Events returns the ring contents for node's flow, oldest first.
func (f *FlightRecorder) Events(node int) []Event {
	r := f.flows[node]
	if r == nil {
		return nil
	}
	if len(r.events) < cap(r.events) {
		return append([]Event(nil), r.events...)
	}
	out := make([]Event, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// Nodes returns the bound node ids in ascending order (for
// deterministic iteration).
func (f *FlightRecorder) Nodes() []int {
	nodes := make([]int, 0, len(f.flows))
	for n := range f.flows {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	return nodes
}

// Unanswered reports whether node's flow has a transport attempt that no
// progress event has followed, and when the oldest such attempt was
// made. A flow with nothing outstanding is idle, not stalled.
func (f *FlightRecorder) Unanswered(node int) (since sim.Time, ok bool) {
	if r := f.flows[node]; r != nil && r.unanswered {
		return r.since, true
	}
	return 0, false
}

// Label returns the flow label bound to node ("" when unbound).
func (f *FlightRecorder) Label(node int) string {
	if r := f.flows[node]; r != nil {
		return r.label
	}
	return ""
}

// Dump writes node's event timeline to w with a reason header. The
// writer is typically shared across parallel runs; guard it with
// DumpWriter if so.
func (f *FlightRecorder) Dump(w io.Writer, node int, run string, seed int64, reason string) {
	r := f.flows[node]
	if r == nil {
		return
	}
	evs := f.Events(node)
	fmt.Fprintf(w, "=== flight recorder: flow %q (node %d) run %q seed %d — %s (%d events) ===\n",
		r.label, node, run, seed, reason, len(evs))
	for _, e := range evs {
		fmt.Fprintf(w, "%12d %-16s node=%d a=%d b=%d len=%d",
			int64(e.T), e.Kind.String(), e.Node, e.A, e.B, e.Len)
		if e.J != 0 {
			fmt.Fprintf(w, " j=%d", e.J)
		}
		if e.Cause != CauseNone {
			fmt.Fprintf(w, " cause=%s", e.Cause)
		}
		fmt.Fprintln(w)
	}
}

// DumpWriter serializes dump output from concurrent runs so timelines
// interleave whole.
type DumpWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewDumpWriter wraps w.
func NewDumpWriter(w io.Writer) *DumpWriter { return &DumpWriter{w: w} }

// Write implements io.Writer.
func (d *DumpWriter) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.w.Write(p)
}
