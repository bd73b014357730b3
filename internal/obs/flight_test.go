package obs

import (
	"bytes"
	"strings"
	"testing"

	"tcplp/internal/sim"
)

func TestFlightRingWrap(t *testing.T) {
	fr := NewFlightRecorder(4)
	fr.Bind(7, "anem-7")
	for i := 1; i <= 6; i++ {
		fr.Record(Event{T: sim.Time(i), Kind: TCPSend, Node: 7, A: int64(i)})
	}
	fr.Record(Event{T: 99, Kind: TCPSend, Node: 3}) // unbound node: ignored
	evs := fr.Events(7)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want cap 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(i + 3); e.A != want {
			t.Errorf("event %d: A=%d, want %d (oldest-first after wrap)", i, e.A, want)
		}
	}
	if got := fr.Events(3); got != nil {
		t.Errorf("unbound node has events: %v", got)
	}
	if got := fr.Nodes(); len(got) != 1 || got[0] != 7 {
		t.Errorf("Nodes() = %v", got)
	}
	if got := fr.Label(7); got != "anem-7" {
		t.Errorf("Label = %q", got)
	}
}

func TestFlightProgressTracking(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Bind(2, "flow")
	// MAC/PHY traffic and bare ACKs are not transport attempts: a flow
	// emitting only those is idle, not waiting.
	fr.Record(Event{T: 50, Kind: MacRetry, Node: 2})
	fr.Record(Event{T: 60, Kind: PhyTx, Node: 2, Len: 40})
	fr.Record(Event{T: 70, Kind: TCPSend, Node: 2}) // Len 0: an ACK
	fr.Record(Event{T: 80, Kind: JourneyData, Node: 2, J: 1})
	if _, ok := fr.Unanswered(2); ok {
		t.Fatal("MAC/PHY events, a bare ACK or an unreliable datagram left the flow waiting")
	}
	// Sends and retransmissions are attempts; the oldest one dates the wait.
	fr.Record(Event{T: 100, Kind: TCPSend, Node: 2, Len: 82})
	fr.Record(Event{T: 200, Kind: TCPRTO, Node: 2})
	fr.Record(Event{T: 300, Kind: MacRetry, Node: 2})
	if since, ok := fr.Unanswered(2); !ok || since != 100 {
		t.Fatalf("Unanswered = %d, %v; want 100, true", since, ok)
	}
	fr.Record(Event{T: 400, Kind: TCPRecv, Node: 2})
	if _, ok := fr.Unanswered(2); ok {
		t.Fatal("progress did not answer the attempt")
	}
	fr.Record(Event{T: 500, Kind: CoAPRtx, Node: 2})
	if since, ok := fr.Unanswered(2); !ok || since != 500 {
		t.Fatalf("Unanswered after a new attempt = %d, %v; want 500, true", since, ok)
	}
	for _, k := range []Kind{CoAPRTO, FragReassembled} {
		if !isProgress(Event{Kind: k}) {
			t.Errorf("%s should count as progress", k)
		}
	}
	if !isAttempt(Event{Kind: JourneyData, Len: 1}) {
		t.Error("a reliable datagram should count as an attempt")
	}
	if _, ok := fr.Unanswered(9); ok {
		t.Error("unbound node reported waiting")
	}
}

func TestFlightDump(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Bind(4, "anem-4")
	fr.Record(Event{T: 1000, Kind: CoAPRtx, Node: 4, A: 1, B: 3000000})
	fr.Record(Event{T: 2000, Kind: MacDrop, Node: 4, A: 2, Len: 90, J: 17, Cause: CauseRetriesExhausted})
	var buf bytes.Buffer
	fr.Dump(NewDumpWriter(&buf), 4, "cell-b", 11, "stalled: no progress for 4000000 us")
	out := buf.String()
	for _, want := range []string{
		`flow "anem-4" (node 4)`, `run "cell-b" seed 11`, "stalled", "(2 events)",
		"coap_rtx         node=4 a=1 b=3000000 len=0\n",
		"mac_drop         node=4 a=2 b=0 len=90 j=17 cause=retries_exhausted\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	fr.Dump(&buf, 9, "cell-b", 11, "x") // unbound: silent no-op
	if buf.Len() != 0 {
		t.Errorf("dump for unbound node wrote %q", buf.String())
	}
}
