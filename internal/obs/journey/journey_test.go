package journey

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"tcplp/internal/app"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

func TestReadingSizeMatchesApp(t *testing.T) {
	if ReadingSize != app.ReadingSize {
		t.Fatalf("journey.ReadingSize = %d, app.ReadingSize = %d", ReadingSize, app.ReadingSize)
	}
}

// Analyze feeds a hand-built trace to a Recorder the way a run's Trace
// does, one event at a time, and resolves it.
func Analyze(events []obs.Event) *Report {
	rec := NewRecorder()
	for _, e := range events {
		rec.Record(e)
	}
	return rec.Report()
}

// ev abbreviates event construction for hand-built traces.
func ev(t sim.Time, k obs.Kind, node int, j, a, b int64, ln int, cause obs.Cause) obs.Event {
	return obs.Event{T: t, Kind: k, Node: node, J: j, A: a, B: b, Len: ln, Cause: cause}
}

func TestAnalyzeDeliveredGatewayTCP(t *testing.T) {
	// One reading (node 3, seq 1) through a gateway flow, with one
	// retransmission: jid 7 is the first transmission, jid 9 delivers.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(2100, obs.MacBackoff, 3, 7, 3, 2, 0, 0), // BE=3, 2 slots drawn
		ev(2200, obs.PhyTx, 3, 7, 4000, 0, 100, 0),
		ev(5000, obs.JourneySeg, 3, 9, 0, 0, 82, 0), // retransmission
		ev(5100, obs.MacBackoff, 3, 9, 3, 1, 0, 0),
		ev(5200, obs.MacRetry, 3, 9, 1, 700, 0, 0),
		ev(5300, obs.PhyTx, 3, 9, 3000, 0, 100, 0),
		ev(10000, obs.JourneyMesh, 3, 0, 1, 0, 0, 0),
		ev(12000, obs.JourneyWanEnq, 3, 0, 1, 0, 0, 0),
		ev(20000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
	}
	rep := Analyze(events)
	if len(rep.Readings) != 1 {
		t.Fatalf("got %d readings, want 1", len(rep.Readings))
	}
	r := rep.Readings[0]
	if r.State != StateDelivered {
		t.Fatalf("state = %v, want delivered", r.State)
	}
	if r.PID != 9 {
		t.Fatalf("delivering pid = %d, want 9", r.PID)
	}
	b := &r.Buckets
	want := map[string]sim.Duration{
		"app-queue": 1000, "send-wait": 1000, "rtx-stall": 3000,
		"mesh": 5000, "gateway": 2000, "wan": 8000,
	}
	got := map[string]sim.Duration{
		"app-queue": b.AppQueue, "send-wait": b.SendWait, "rtx-stall": b.RtxStall,
		"mesh": b.Mesh, "gateway": b.Gateway, "wan": b.WAN,
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s = %d us, want %d us", k, got[k], w)
		}
	}
	if b.Total() != r.End.Sub(r.Gen) {
		t.Errorf("buckets sum to %d, e2e is %d", b.Total(), r.End.Sub(r.Gen))
	}
	// Sub-buckets come from the delivering pid only (jid 9).
	if wantBackoff := 1*phy.UnitBackoff + phy.CCATime; b.Backoff != wantBackoff {
		t.Errorf("backoff = %d, want %d", b.Backoff, wantBackoff)
	}
	if b.Retry != 700 {
		t.Errorf("retry = %d, want 700", b.Retry)
	}
	if b.Air != 3000 {
		t.Errorf("air = %d, want 3000", b.Air)
	}
	if b.Forward != b.Mesh-b.Backoff-b.Retry-b.Air {
		t.Errorf("forward = %d, want residual %d", b.Forward, b.Mesh-b.Backoff-b.Retry-b.Air)
	}
	if c := Check(rep); c.Err() != nil {
		t.Fatalf("conformance: %v", c.Err())
	}
}

func TestAnalyzeDirectFlowNoGateway(t *testing.T) {
	// Direct flow: no mesh/wan events; deliver terminates the mesh stage.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 2, 0, 5, 0, 0, 0),
		ev(100, obs.JourneyEnq, 2, 0, 5, 0, 0, 0),
		ev(300, obs.JourneySeg, 2, 11, 0, 0, 82, 0),
		ev(900, obs.JourneyDeliver, 2, 0, 5, 0, 0, 0),
	}
	rep := Analyze(events)
	r := rep.Readings[0]
	b := &r.Buckets
	if b.Mesh != 600 || b.Gateway != 0 || b.WAN != 0 {
		t.Fatalf("mesh/gw/wan = %d/%d/%d, want 600/0/0", b.Mesh, b.Gateway, b.WAN)
	}
	if b.Total() != 900 {
		t.Fatalf("total = %d, want 900", b.Total())
	}
}

func TestUnreliableDatagramAdoptsDropCause(t *testing.T) {
	// Two readings ride one unreliable datagram (jid 5) that the MAC
	// terminally drops: both must resolve lost with the drop's cause.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 4, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 4, 0, 2, 0, 0, 0),
		ev(100, obs.JourneyEnq, 4, 0, 1, 0, 0, 0),
		ev(100, obs.JourneyEnq, 4, 0, 2, 1, 0, 0),
		ev(200, obs.JourneyData, 4, 5, 1, 2, 0, 0), // Len=0: unreliable
		ev(800, obs.MacDrop, 4, 5, 0, 0, 0, obs.CauseRetriesExhausted),
	}
	rep := Analyze(events)
	for _, r := range rep.Readings {
		if r.State != StateLost {
			t.Fatalf("seq %d state = %v, want lost", r.Seq, r.State)
		}
		if r.Cause != obs.CauseRetriesExhausted {
			t.Fatalf("seq %d cause = %v, want retries_exhausted", r.Seq, r.Cause)
		}
		if r.End != 800 {
			t.Fatalf("seq %d end = %d, want 800", r.Seq, r.End)
		}
	}
	c := Check(rep)
	if c.Err() != nil {
		t.Fatalf("conformance: %v", c.Err())
	}
	if c.LostByCause["retries_exhausted"] != 2 {
		t.Fatalf("lost by cause = %v", c.LostByCause)
	}
}

func TestReliableDatagramIgnoresRecoverableDrop(t *testing.T) {
	// A CoAP CON datagram's packet drop is not terminal — the exchange
	// retransmits. Without a JourneyLoss the reading stays in flight.
	events := []obs.Event{
		ev(0, obs.JourneyGen, 4, 0, 1, 0, 0, 0),
		ev(100, obs.JourneyEnq, 4, 0, 1, 0, 0, 0),
		ev(200, obs.JourneyData, 4, 5, 1, 1, 1, 0), // Len=1: reliable
		ev(800, obs.MacDrop, 4, 5, 0, 0, 0, obs.CauseRetriesExhausted),
	}
	rep := Analyze(events)
	r := rep.Readings[0]
	if r.State != StateInFlight || r.Stage != "mesh" {
		t.Fatalf("state/stage = %v/%q, want in-flight/mesh", r.State, r.Stage)
	}
}

func TestInFlightStaging(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 1, 0, 1, 0, 0, 0), // never accepted
		ev(0, obs.JourneyGen, 1, 0, 2, 0, 0, 0),
		ev(10, obs.JourneyEnq, 1, 0, 2, 0, 0, 0), // accepted, in mesh
		ev(0, obs.JourneyGen, 1, 0, 3, 0, 0, 0),
		ev(10, obs.JourneyEnq, 1, 0, 3, 1, 0, 0),
		ev(20, obs.JourneyMesh, 1, 0, 3, 0, 0, 0), // at gateway
	}
	rep := Analyze(events)
	want := map[uint32]string{1: "app-queue", 2: "mesh", 3: "gateway"}
	for _, r := range rep.Readings {
		if r.Stage != want[r.Seq] {
			t.Errorf("seq %d stage = %q, want %q", r.Seq, r.Stage, want[r.Seq])
		}
	}
	c := Check(rep)
	if c.InFlight != 3 {
		t.Fatalf("in flight = %d, want 3", c.InFlight)
	}
}

func TestConformanceFlagsCauselessLoss(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 1, 0, 1, 0, 0, 0),
		ev(50, obs.JourneyLoss, 1, 0, 1, 0, 0, obs.CauseNone),
	}
	c := Check(Analyze(events))
	if c.Err() == nil {
		t.Fatal("expected a violation for a causeless loss")
	}
}

func TestChromeWriterEmitsValidJSON(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(9000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 3, 0, 2, 0, 0, 0),
		ev(500, obs.JourneyLoss, 3, 0, 2, 0, 0, obs.CauseAppQueueFull),
	}
	var buf bytes.Buffer
	cw := NewChromeWriter(&buf)
	cw.AddRun("unit", 1, Analyze(events))
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace-event JSON: %v\n%s", err, buf.String())
	}
	if len(out) < 4 {
		t.Fatalf("got %d trace events, want >= 4", len(out))
	}
	if out[0]["ph"] != "M" {
		t.Fatalf("first event should be process metadata, got %v", out[0])
	}
}

func TestWaterfallRenders(t *testing.T) {
	events := []obs.Event{
		ev(0, obs.JourneyGen, 3, 0, 1, 0, 0, 0),
		ev(1000, obs.JourneyEnq, 3, 0, 1, 0, 0, 0),
		ev(2000, obs.JourneySeg, 3, 7, 0, 0, 82, 0),
		ev(9000, obs.JourneyDeliver, 3, 0, 1, 0, 0, 0),
	}
	rep := Analyze(events)
	s := rep.Flows[3].Waterfall()
	for _, want := range []string{"app-queue", "mesh", "1 delivered"} {
		if !strings.Contains(s, want) {
			t.Errorf("waterfall missing %q:\n%s", want, s)
		}
	}
}

// recordedMix is the event stream of 200 delivered TCP readings as a
// lossy metro run emits it: each reading's six journey-relevant events
// among collisions, PHY losses and the MAC/PHY/TCP events of untagged
// packets (ACKs), which are half the stream and none of the journey.
func recordedMix() []obs.Event {
	var events []obs.Event
	for seq := int64(1); seq <= 200; seq++ {
		t0 := sim.Time(seq * 10000)
		jid := seq
		events = append(events,
			ev(t0, obs.JourneyGen, 3, 0, seq, 0, 0, 0),
			ev(t0+100, obs.JourneyEnq, 3, 0, seq, seq-1, 0, 0),
			ev(t0+200, obs.JourneySeg, 3, jid, (seq-1)*ReadingSize, 0, 82, 0),
			ev(t0+200, obs.TCPSend, 3, jid, seq*82, 0, 82, 0),
			ev(t0+300, obs.MacBackoff, 3, jid, 3, 2, 0, 0),
			ev(t0+350, obs.PhyCollision, 4, 0, 0, 0, 67, obs.CauseCollision),
			ev(t0+360, obs.PhyCollision, 5, 0, 0, 0, 67, obs.CauseCollision),
			ev(t0+400, obs.PhyTx, 3, jid, 4000, 0, 100, 0),
			ev(t0+4500, obs.PhyTx, 2, 0, 352, 0, 5, 0), // link ACK
			ev(t0+4600, obs.PhyRxDrop, 6, 0, 1, 0, 100, obs.CausePER),
			ev(t0+4700, obs.MacBackoff, 2, 0, 3, 1, 0, 0), // TCP ACK coming back
			ev(t0+4800, obs.TCPRecv, 3, 0, 0, 0, 0, 0),
			ev(t0+5000, obs.JourneyDeliver, 3, 0, seq, 0, 0, 0),
		)
	}
	return events
}

// TestRecorderRetainsNoEvents pins the fold: an event the journey does
// not use costs no allocation, and a million of them leave no heap
// behind.
func TestRecorderRetainsNoEvents(t *testing.T) {
	rec := NewRecorder()
	for _, e := range recordedMix() {
		rec.Record(e)
	}
	ignored := []obs.Event{
		ev(1, obs.PhyCollision, 4, 0, 0, 0, 67, obs.CauseCollision),
		ev(1, obs.PhyRxDrop, 4, 0, 1, 0, 67, obs.CausePER),
		ev(1, obs.TCPSend, 3, 9, 1, 0, 82, 0),
		ev(1, obs.TCPRecv, 3, 0, 0, 0, 0, 0),
		ev(1, obs.FragEmit, 3, 9, 2, 0, 122, 0),
		ev(1, obs.WanEnqueue, -1, 0, 3, 0, 90, 0),
		// MAC/PHY events of untagged packets.
		ev(1, obs.MacBackoff, 3, 0, 3, 2, 0, 0),
		ev(1, obs.MacRetry, 3, 0, 1, 700, 0, 0),
		ev(1, obs.PhyTx, 3, 0, 352, 0, 5, 0),
		ev(1, obs.MacDrop, 3, 0, 0, 0, 0, obs.CauseRetriesExhausted),
		// Tagged, but with an id no transmission announced.
		ev(1, obs.PhyTx, 3, 1<<40, 352, 0, 5, 0),
		ev(1, obs.MacBackoff, 3, -7, 3, 2, 0, 0),
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, e := range ignored {
			rec.Record(e)
		}
	}); n != 0 {
		t.Errorf("Record of events outside the journey allocates %.0f times per %d events, want 0", n, len(ignored))
	}
	// Tagged MAC/PHY events of an announced packet accumulate in place.
	tagged := []obs.Event{
		ev(1, obs.MacBackoff, 3, 7, 3, 2, 0, 0),
		ev(1, obs.MacRetry, 3, 7, 1, 700, 0, 0),
		ev(1, obs.PhyTx, 3, 7, 4000, 0, 100, 0),
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, e := range tagged {
			rec.Record(e)
		}
	}); n != 0 {
		t.Errorf("Record of a tagged packet's MAC/PHY events allocates %.0f times, want 0", n)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	collision := ev(0, obs.PhyCollision, 4, 0, 0, 0, 67, obs.CauseCollision)
	for i := 0; i < 1_000_000; i++ {
		collision.T = sim.Time(i)
		rec.Record(collision)
	}
	after := heap()
	// A retained log would hold 64 MB here.
	if after > before+(64<<10) {
		t.Errorf("live heap grew %d B over 1M phy_collision events, want none", after-before)
	}
	if rep := rec.Report(); len(rep.Readings) != 200 {
		t.Fatalf("reconstructed %d readings, want 200", len(rep.Readings))
	}
}

// TestRecorderRefusesOutOfRangeIDs: Record runs inside the event loop,
// so an id the dense tables cannot hold is dropped, not indexed, and
// does not size a table.
func TestRecorderRefusesOutOfRangeIDs(t *testing.T) {
	rec := NewRecorder()
	for _, e := range []obs.Event{
		ev(0, obs.JourneyGen, -1, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 1<<40, 0, 1, 0, 0, 0),
		ev(0, obs.JourneySeg, 1<<40, 1, 0, 0, 82, 0),
		ev(0, obs.JourneyEnq, 1<<40, 0, 1, 0, 0, 0),
		ev(0, obs.JourneyGen, 2, 0, 7, 0, 0, 0),
		ev(0, obs.JourneyGen, 2, 0, 7, 0, 0, 0),  // duplicate
		ev(0, obs.JourneyGen, 2, 0, 99, 0, 0, 0), // not the sensor's next reading
		ev(0, obs.JourneyEnq, 2, 0, 6, 0, 0, 0),  // before the first reading
		ev(0, obs.JourneyEnq, 2, 0, -1, 0, 0, 0),
		ev(10, obs.JourneySeg, 2, 1<<50, 0, 0, 82, 0), // unannounceable id
		ev(20, obs.PhyTx, 2, 1<<50, 4000, 0, 100, 0),
		ev(30, obs.JourneyDeliver, 2, 0, 7, 0, 0, 0),
	} {
		rec.Record(e)
	}
	if len(rec.sources) > 3 || rec.pids.Len() != 0 {
		t.Fatalf("tables sized by out-of-range ids: %d sources, %d packet ids", len(rec.sources), rec.pids.Len())
	}
	rep := rec.Report()
	if len(rep.Readings) != 1 || rep.Readings[0].Seq != 7 || rep.Readings[0].State != StateDelivered {
		t.Fatalf("readings = %+v, want node 2 seq 7 delivered alone", rep.Readings)
	}
	if r := rep.Readings[0]; r.PID != 1<<50 || r.Buckets.Air != 0 {
		t.Errorf("pid/air = %d/%d, want the segment's id with no cost recorded", r.PID, r.Buckets.Air)
	}
	if err := Check(rep).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderAllocsPerBlock: a reading and its segment cost no
// allocation of their own. The recorder allocates a table's block when
// the table reaches it — one allocation per block opened, and at most one
// more for the table's list of blocks — and each source's record, not one
// record per reading.
func TestRecorderAllocsPerBlock(t *testing.T) {
	const readings, sources = 10_000, 4
	var rec *Recorder
	allocs := testing.AllocsPerRun(1, func() {
		rec = NewRecorder()
		for i := 0; i < readings; i++ {
			node, seq, t0 := 1+i%sources, int64(i/sources), sim.Time(i)*1000
			rec.Record(ev(t0, obs.JourneyGen, node, 0, seq, 0, 0, 0))
			rec.Record(ev(t0+100, obs.JourneyEnq, node, 0, seq, seq, 0, 0))
			rec.Record(ev(t0+200, obs.JourneySeg, node, int64(i+1), seq*ReadingSize, 0, ReadingSize, 0))
		}
	})
	opened := rec.readings.Blocks() + rec.pids.Blocks()
	for _, src := range rec.sources {
		if src != nil {
			opened += src.readings.Blocks() + src.segs.Blocks() + src.datas.Blocks()
		}
	}
	// Per source: its record and a regrowth of the source table; and the
	// recorder.
	allowed := 2*opened + 2*sources + 1
	t.Logf("%d readings over %d sources: %.0f allocations, %d blocks opened", readings, sources, allocs, opened)
	if allocs > float64(allowed) {
		t.Errorf("recording %d readings, each with a segment, allocated %.0f times, want at most %d (%d blocks opened)",
			readings, allocs, allowed, opened)
	}
	if rep := rec.Report(); len(rep.Readings) != readings {
		t.Fatalf("reconstructed %d readings, want %d", len(rep.Readings), readings)
	}
}

// BenchmarkRecorderRecord is the per-event cost of tracing a run: one
// Record per event of a recorded mix, resolved once at the end.
func BenchmarkRecorderRecord(b *testing.B) {
	events := recordedMix()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder()
		for _, e := range events {
			rec.Record(e)
		}
		if rep := rec.Report(); len(rep.Readings) != 200 {
			b.Fatal("bad reconstruction")
		}
	}
	perEvent := float64(b.N) * float64(len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perEvent, "ns/event")
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.Mallocs-mallocs0)/perEvent, "allocs/event")
}
