package journey

import (
	"encoding/binary"
	"testing"

	"tcplp/internal/obs"
	"tcplp/internal/sim"
)

// eventFields are the integers of an obs.Event the fuzzer controls, each
// a signed varint on the wire after the kind and cause bytes, so small
// ids are as reachable as negative and 2^62-sized ones.
const eventFields = 6

// decodeEvents reads events off data until the bytes run out.
func decodeEvents(data []byte) []obs.Event {
	var events []obs.Event
	for len(data) >= 2 {
		e := obs.Event{Kind: obs.Kind(data[0]), Cause: obs.Cause(data[1])}
		data = data[2:]
		var f [eventFields]int64
		for i := range f {
			v, n := binary.Varint(data)
			if n <= 0 {
				return events
			}
			f[i], data = v, data[n:]
		}
		e.T, e.Node, e.J, e.A, e.B, e.Len = sim.Time(f[0]), int(f[1]), f[2], f[3], f[4], int(f[5])
		events = append(events, e)
	}
	return events
}

// encodeEvents is decodeEvents' inverse, for seeding the corpus from
// hand-built traces.
func encodeEvents(events []obs.Event) []byte {
	var out []byte
	for _, e := range events {
		out = append(out, byte(e.Kind), byte(e.Cause))
		for _, v := range [eventFields]int64{int64(e.T), int64(e.Node), e.J, e.A, e.B, int64(e.Len)} {
			out = binary.AppendVarint(out, v)
		}
	}
	return out
}

// FuzzRecorder feeds a Recorder arbitrary event sequences — any kind,
// negative and huge node ids, packet ids and sequence numbers, time
// running backwards. Record sits inside the event loop, so nothing may
// panic or size a table from an id; Report must return, and every
// reading it lists must be in exactly one terminal state.
func FuzzRecorder(f *testing.F) {
	f.Add(encodeEvents([]obs.Event{ // gateway TCP reading, one retransmission
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(2100, obs.MacBackoff, 3, 7, 3, 2, 0, 0),
		ev(5000, obs.JourneySeg, 3, 9, 0, 0, 82, 0),
		ev(5200, obs.MacRetry, 3, 9, 1, 700, 0, 0),
		ev(5300, obs.PhyTx, 3, 9, 3000, 0, 100, 0),
		ev(10000, obs.JourneyMesh, 3, 0, 1, 0, 0, 0),
		ev(12000, obs.JourneyWanEnq, 3, 0, 1, 0, 0, 0),
		ev(20000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
	}))
	f.Add(encodeEvents([]obs.Event{ // unreliable datagram dropped; CoAP rtx; explicit loss
		ev(0, obs.JourneyGen, 4, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 4, 0, 2, 0, 0, 0),
		ev(200, obs.JourneyData, 4, 5, 1, 2, 0, 0),
		ev(800, obs.MacDrop, 4, 5, 0, 0, 0, obs.CauseRetriesExhausted),
		ev(900, obs.JourneyGen, 4, 0, 3, 0, 0, 0),
		ev(950, obs.JourneyData, 4, 6, 3, 1, 1, 0),
		ev(1900, obs.CoAPRtx, 4, 6, 1, 3000000, 0, 0),
		ev(2500, obs.JourneyLoss, 4, 0, 3, 0, 0, obs.CauseCoAPGiveUp),
	}))
	f.Add(encodeEvents([]obs.Event{ // ids no table may be sized by
		ev(0, obs.JourneyGen, 1<<40, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, -5, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 2, 0, 1<<33, 0, 0, 0),
		ev(5, obs.JourneySeg, 2, 1<<62, -9, 0, 82, 0),
		ev(6, obs.JourneyData, 2, -1<<62, 1<<33, 1<<62, 1, 0),
		ev(7, obs.PhyTx, 2, 1<<62, 1<<62, 0, 0, 0),
		ev(3, obs.JourneyDeliver, 2, 0, 1<<33, 0, 0, 0),
		ev(9, obs.Kind(200), 1, 3, 0, 0, 0, obs.Cause(200)),
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := NewRecorder()
		gens := 0
		for _, e := range decodeEvents(data) {
			if e.Kind == obs.JourneyGen {
				gens++
			}
			rec.Record(e)
		}
		if len(rec.sources) > maxNode || rec.pids.Len() > (len(data)/2+1)*(maxIDGap+1) {
			t.Fatalf("tables outgrew their bounds: %d sources, %d packet ids from %d bytes",
				len(rec.sources), rec.pids.Len(), len(data))
		}
		rep := rec.Report()
		c := Check(rep)
		if c.Generated != len(rep.Readings) || c.Generated > gens {
			t.Fatalf("%d readings reported, %d checked, %d generated", len(rep.Readings), c.Generated, gens)
		}
		if c.Delivered+c.Lost+c.InFlight != c.Generated {
			t.Fatalf("states %d+%d+%d do not cover %d readings", c.Delivered, c.Lost, c.InFlight, c.Generated)
		}
		flows := 0
		for _, fl := range rep.Flows {
			flows += fl.Generated
		}
		if flows != c.Generated {
			t.Fatalf("flow reports cover %d of %d readings", flows, c.Generated)
		}
	})
}
