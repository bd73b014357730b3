package obs

import (
	"testing"

	"tcplp/internal/sim"
)

// countSink counts events per kind.
type countSink struct {
	n    int
	last Event
}

func (c *countSink) Record(e Event) { c.n++; c.last = e }

func TestTraceFanout(t *testing.T) {
	tr := NewTrace()
	a, b := &countSink{}, &countSink{}
	tr.AddSink(a)
	tr.AddSink(b)
	if tr.WantsFrames() {
		t.Fatal("WantsFrames true with no frame sink")
	}
	e := Event{T: 42, Kind: MacRetry, Node: 3, A: 2, Len: 61}
	tr.Emit(e)
	if a.n != 1 || b.n != 1 {
		t.Fatalf("fanout: got %d/%d records, want 1/1", a.n, b.n)
	}
	if a.last != e {
		t.Fatalf("event mangled in delivery: %+v", a.last)
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := KindUnknown; k < kindCount; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if kindCount.String() != "invalid" {
		t.Errorf("sentinel kind stringified as %q", kindCount.String())
	}
}

// TestCauseNamesComplete: every drop cause in the taxonomy stringifies
// — the conformance checker reports losses by these names, so a gap
// here is a silent hole in the loss accounting.
func TestCauseNamesComplete(t *testing.T) {
	if CauseNone.String() != "" {
		t.Errorf("CauseNone stringified as %q, want empty (NDJSON omits it)", CauseNone.String())
	}
	for c := CauseNone + 1; c < causeCount; c++ {
		if c.String() == "" {
			t.Errorf("cause %d has no name", c)
		}
	}
	if causeCount.String() != "invalid" {
		t.Errorf("sentinel cause stringified as %q", causeCount.String())
	}
}

// TestDisabledHookAllocs pins the core design contract: the hook
// pattern every layer uses (`if tr != nil { tr.Emit(...) }`) must not
// allocate when tracing is off, and emitting to an attached value-sink
// must not allocate either (Event is a flat value type).
func TestDisabledHookAllocs(t *testing.T) {
	var tr *Trace
	payload := []byte{1, 2, 3}
	if n := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			tr.Emit(Event{T: 1, Kind: PhyTx, Node: 0, A: 992, Len: len(payload)})
		}
	}); n != 0 {
		t.Errorf("disabled hook allocates %.1f per op, want 0", n)
	}
	// The journey hooks add J/Cause fields and NextID calls on the same
	// path; they must stay free too.
	var jid int64
	if n := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			jid = tr.NextID()
			tr.Emit(Event{T: 1, Kind: JourneySeg, Node: 0, J: jid, A: 82, Len: len(payload)})
			tr.Emit(Event{T: 2, Kind: MacDrop, Node: 0, J: jid, Cause: CauseRetriesExhausted})
		}
	}); n != 0 {
		t.Errorf("disabled journey hook allocates %.1f per op, want 0", n)
	}
	en := NewTrace()
	en.AddSink(&countSink{})
	if n := testing.AllocsPerRun(1000, func() {
		if en != nil {
			en.Emit(Event{T: 1, Kind: PhyTx, Node: 0, A: 992, Len: len(payload)})
		}
	}); n != 0 {
		t.Errorf("enabled emit allocates %.1f per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if en != nil {
			jid = en.NextID()
			en.Emit(Event{T: 1, Kind: JourneySeg, Node: 0, J: jid, A: 82, Len: len(payload)})
		}
	}); n != 0 {
		t.Errorf("enabled journey emit allocates %.1f per op, want 0", n)
	}
	_ = jid
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil {
			tr.Emit(Event{T: sim.Time(i), Kind: TCPSend, Node: 1, A: int64(i), Len: 944})
		}
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := NewTrace()
	tr.AddSink(&countSink{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(Event{T: sim.Time(i), Kind: TCPSend, Node: 1, A: int64(i), Len: 944})
	}
}
