package mac

import (
	"slices"
	"testing"

	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// pair builds two always-on MACs one hop apart.
func pair(seed int64) (*sim.Engine, *Mac, *Mac) {
	eng := sim.NewEngine(seed)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	a := New(eng, ch.AddRadio(0, phy.Point{X: 0}), DefaultParams())
	b := New(eng, ch.AddRadio(1, phy.Point{X: 1}), DefaultParams())
	return eng, a, b
}

func TestUnicastDelivery(t *testing.T) {
	eng, a, b := pair(1)
	var got []byte
	b.OnReceive = func(f *phy.Frame) { got = append([]byte(nil), f.Payload...) } // valid for the callback only
	status := TxStatus(-1)
	a.SendJID(b.Radio().Addr(), []byte("payload"), 0, func(s TxStatus) { status = s })
	eng.Run()
	if string(got) != "payload" {
		t.Fatalf("payload = %q", got)
	}
	if status != TxOK {
		t.Fatalf("status = %v", status)
	}
	if b.Stats.AcksSent != 1 {
		t.Fatalf("acks sent = %d", b.Stats.AcksSent)
	}
}

func TestQueueFIFO(t *testing.T) {
	eng, a, b := pair(2)
	var got []string
	b.OnReceive = func(f *phy.Frame) { got = append(got, string(f.Payload)) }
	for _, s := range []string{"one", "two", "three"} {
		a.SendJID(b.Radio().Addr(), []byte(s), 0, nil)
	}
	eng.Run()
	if len(got) != 3 || got[0] != "one" || got[1] != "two" || got[2] != "three" {
		t.Fatalf("delivery order: %v", got)
	}
}

func TestRetriesOnLoss(t *testing.T) {
	eng := sim.NewEngine(3)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	ra := ch.AddRadio(0, phy.Point{X: 0})
	rb := ch.AddRadio(1, phy.Point{X: 1})
	// Drop the first two data transmissions a→b.
	drops := 2
	ch.PER = func(src, dst *phy.Radio) float64 {
		if src == ra && drops > 0 {
			drops--
			return 1
		}
		return 0
	}
	a := New(eng, ra, DefaultParams())
	b := New(eng, rb, DefaultParams())
	delivered := 0
	b.OnReceive = func(*phy.Frame) { delivered++ }
	var status TxStatus = -1
	a.SendJID(rb.Addr(), []byte("x"), 0, func(s TxStatus) { status = s })
	eng.Run()
	if status != TxOK || delivered != 1 {
		t.Fatalf("status=%v delivered=%d", status, delivered)
	}
	if a.Stats.Retries != 2 {
		t.Fatalf("retries = %d, want 2", a.Stats.Retries)
	}
}

func TestDropAfterMaxRetries(t *testing.T) {
	eng := sim.NewEngine(4)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	ra := ch.AddRadio(0, phy.Point{X: 0})
	rb := ch.AddRadio(1, phy.Point{X: 1})
	ch.PER = func(src, dst *phy.Radio) float64 { return 1 } // total blackout
	p := DefaultParams()
	p.maxRetries = 3
	a := New(eng, ra, p)
	New(eng, rb, p)
	var status TxStatus = -1
	a.SendJID(rb.Addr(), []byte("x"), 0, func(s TxStatus) { status = s })
	eng.Run()
	if status != TxNoAck {
		t.Fatalf("status = %v, want no-ack", status)
	}
	if a.Stats.DataDropped != 1 || a.Stats.Retries != 3 {
		t.Fatalf("dropped=%d retries=%d", a.Stats.DataDropped, a.Stats.Retries)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	eng := sim.NewEngine(5)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	ra := ch.AddRadio(0, phy.Point{X: 0})
	rb := ch.AddRadio(1, phy.Point{X: 1})
	// Lose b's ACKs (frames from b) once, forcing a retransmission of a
	// frame b already accepted.
	ackDrops := 1
	ch.PER = func(src, dst *phy.Radio) float64 {
		if src == rb && ackDrops > 0 {
			ackDrops--
			return 1
		}
		return 0
	}
	a := New(eng, ra, DefaultParams())
	b := New(eng, rb, DefaultParams())
	delivered := 0
	b.OnReceive = func(*phy.Frame) { delivered++ }
	a.SendJID(rb.Addr(), []byte("x"), 0, nil)
	eng.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (duplicate must be suppressed)", delivered)
	}
	if b.Stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", b.Stats.Duplicates)
	}
}

func TestBroadcastNoAck(t *testing.T) {
	eng, a, b := pair(6)
	got := 0
	b.OnReceive = func(*phy.Frame) { got++ }
	var status TxStatus = -1
	a.SendJID(phy.BroadcastAddr, []byte("hello all"), 0, func(s TxStatus) { status = s })
	eng.Run()
	if got != 1 || status != TxOK {
		t.Fatalf("broadcast: got=%d status=%v", got, status)
	}
	if b.Stats.AcksSent != 0 {
		t.Fatal("broadcast must not be ACKed")
	}
}

// Two hidden senders (0 and 2 cannot sense each other) both push a stream
// of frames to node 1. With d=0, retries repeatedly collide and drops
// occur; with d=40ms, delivery improves markedly (Fig. 6 mechanism).
func TestRetryDelayBeatsHiddenTerminals(t *testing.T) {
	run := func(d sim.Duration) (delivered, dropped uint64) {
		eng := sim.NewEngine(7)
		ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
		r0 := ch.AddRadio(0, phy.Point{X: 0})
		r1 := ch.AddRadio(1, phy.Point{X: 1})
		r2 := ch.AddRadio(2, phy.Point{X: 2})
		p := DefaultParams()
		p.RetryDelayMax = d
		p.maxRetries = 4
		m0 := New(eng, r0, p)
		m1 := New(eng, r1, p)
		m2 := New(eng, r2, p)
		count := uint64(0)
		m1.OnReceive = func(*phy.Frame) { count++ }
		payload := make([]byte, 90)
		var feed func(m *Mac)
		feed = func(m *Mac) {
			m.SendJID(r1.Addr(), payload, 0, func(TxStatus) {
				if eng.Now() < sim.Time(20*sim.Second) {
					feed(m)
				}
			})
		}
		feed(m0)
		feed(m2)
		eng.RunUntil(sim.Time(25 * sim.Second))
		return count, m0.Stats.DataDropped + m2.Stats.DataDropped
	}
	d0Delivered, d0Dropped := run(0)
	d40Delivered, d40Dropped := run(40 * sim.Millisecond)
	if d0Dropped == 0 {
		t.Fatalf("expected hidden-terminal drops at d=0 (delivered=%d)", d0Delivered)
	}
	if d40Dropped >= d0Dropped {
		t.Fatalf("retry delay did not reduce drops: d0=%d d40=%d", d0Dropped, d40Dropped)
	}
	if d40Delivered == 0 {
		t.Fatal("no delivery at d=40ms")
	}
}

func TestIndirectDelivery(t *testing.T) {
	eng := sim.NewEngine(8)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	parentR := ch.AddRadio(0, phy.Point{X: 0})
	childR := ch.AddRadio(1, phy.Point{X: 1})
	parent := New(eng, parentR, DefaultParams())
	child := New(eng, childR, DefaultParams())
	parent.SetChildSleepy(childR.Addr())

	sc := NewSleepController(eng, child, parentR.Addr())
	sc.SleepInterval = 500 * sim.Millisecond
	var got []string
	child.OnReceive = func(f *phy.Frame) {
		got = append(got, string(f.Payload))
		sc.FrameDelivered(f.FramePending)
	}
	sc.Start()

	// Parent queues two frames for the sleeping child; they must wait in
	// the indirect queue, then both be delivered in one wakeup window via
	// the frame-pending bit.
	parent.SendJID(childR.Addr(), []byte("first"), 0, nil)
	parent.SendJID(childR.Addr(), []byte("second"), 0, nil)
	if parent.IndirectQueueLen(childR.Addr()) != 2 {
		t.Fatalf("indirect queue = %d, want 2", parent.IndirectQueueLen(childR.Addr()))
	}
	eng.RunUntil(sim.Time(400 * sim.Millisecond))
	if len(got) != 0 {
		t.Fatal("frame delivered before child polled")
	}
	eng.RunUntil(sim.Time(2 * sim.Second))
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("indirect delivery: %v", got)
	}
	if parent.Stats.IndirectSent != 2 {
		t.Fatalf("indirect sent = %d", parent.Stats.IndirectSent)
	}
	// The child's radio must be mostly asleep.
	if dc := childR.DutyCycle(); dc > 0.25 {
		t.Fatalf("child duty cycle = %.3f, want well under 25%%", dc)
	}
}

func TestSleepyChildUpstreamAnytime(t *testing.T) {
	eng := sim.NewEngine(9)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	parentR := ch.AddRadio(0, phy.Point{X: 0})
	childR := ch.AddRadio(1, phy.Point{X: 1})
	parent := New(eng, parentR, DefaultParams())
	child := New(eng, childR, DefaultParams())
	parent.SetChildSleepy(childR.Addr())
	sc := NewSleepController(eng, child, parentR.Addr())
	sc.Start()
	got := ""
	parent.OnReceive = func(f *phy.Frame) { got = string(f.Payload) }
	var status TxStatus = -1
	eng.Schedule(sim.Second, func() {
		child.SendJID(parentR.Addr(), []byte("up"), 0, func(s TxStatus) { status = s })
	})
	eng.RunUntil(sim.Time(3 * sim.Second))
	if got != "up" || status != TxOK {
		t.Fatalf("upstream from sleepy child failed: %q %v", got, status)
	}
	if childR.State() != phy.StateSleep {
		t.Fatal("child radio should return to sleep after sending")
	}
}

func TestAdaptiveSleepInterval(t *testing.T) {
	eng := sim.NewEngine(10)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	parentR := ch.AddRadio(0, phy.Point{X: 0})
	childR := ch.AddRadio(1, phy.Point{X: 1})
	parent := New(eng, parentR, DefaultParams())
	child := New(eng, childR, DefaultParams())
	parent.SetChildSleepy(childR.Addr())
	sc := NewSleepController(eng, child, parentR.Addr())
	sc.Adaptive = true
	received := 0
	child.OnReceive = func(f *phy.Frame) {
		received++
		sc.FrameDelivered(f.FramePending)
	}
	sc.Start()
	// With no traffic the interval must back off to adaptiveMax.
	eng.RunUntil(sim.Time(60 * sim.Second))
	if sc.current != adaptiveMax {
		t.Fatalf("idle interval = %v, want %v", sc.current, adaptiveMax)
	}
	pollsBefore := sc.Polls
	// A burst of downstream frames must collapse the interval to adaptiveMin and
	// drain quickly.
	for i := 0; i < 10; i++ {
		parent.SendJID(childR.Addr(), []byte{byte(i)}, 0, nil)
	}
	start := eng.Now()
	eng.RunUntil(start.Add(10 * sim.Second))
	if received != 10 {
		t.Fatalf("received %d of 10 burst frames", received)
	}
	if sc.current != adaptiveMin && sc.Polls == pollsBefore {
		t.Fatal("adaptive interval did not react to burst")
	}
	// And back off again when idle.
	eng.RunUntil(eng.Now().Add(60 * sim.Second))
	if sc.current != adaptiveMax {
		t.Fatalf("interval did not back off after burst: %v", sc.current)
	}
}

func TestFastPollWhileExpecting(t *testing.T) {
	eng := sim.NewEngine(11)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	parentR := ch.AddRadio(0, phy.Point{X: 0})
	childR := ch.AddRadio(1, phy.Point{X: 1})
	parent := New(eng, parentR, DefaultParams())
	child := New(eng, childR, DefaultParams())
	parent.SetChildSleepy(childR.Addr())
	sc := NewSleepController(eng, child, parentR.Addr())
	sc.SleepInterval = 4 * sim.Minute
	sc.FastInterval = 100 * sim.Millisecond
	sc.Start()
	sc.SetExpecting(true)
	eng.RunUntil(sim.Time(5 * sim.Second))
	if sc.Polls < 30 {
		t.Fatalf("fast polling inactive: %d polls in 5s", sc.Polls)
	}
	sc.SetExpecting(false)
	p := sc.Polls
	eng.RunUntil(sim.Time(30 * sim.Second))
	if sc.Polls > p+2 {
		t.Fatalf("polling still fast after SetExpecting(false): %d extra", sc.Polls-p)
	}
}

// TestNoFastPollAtZeroFastInterval: a FastInterval of 0 turns the §9.2
// hint off, so a transport that starts expecting leaves the next poll
// where the sleep interval put it.
func TestNoFastPollAtZeroFastInterval(t *testing.T) {
	eng := sim.NewEngine(11)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	parentR := ch.AddRadio(0, phy.Point{X: 0})
	childR := ch.AddRadio(1, phy.Point{X: 1})
	parent := New(eng, parentR, DefaultParams())
	child := New(eng, childR, DefaultParams())
	parent.SetChildSleepy(childR.Addr())
	sc := NewSleepController(eng, child, parentR.Addr())
	sc.SleepInterval = 2 * sim.Second
	sc.FastInterval = 0
	sc.Start()
	eng.RunUntil(sim.Time(sim.Second))
	sc.SetExpecting(true)
	if when, ok := sc.pollTimer.Deadline(); !ok || when != sim.Time(2*sim.Second) {
		t.Fatalf("next poll at %v (armed %v) after SetExpecting(true), want it left at 2s", when, ok)
	}
}

func TestCSMADefersToBusyChannel(t *testing.T) {
	// Nodes 0 and 2 both in sense range of each other (sense 2.0) sending
	// to 1: CSMA should avoid almost all collisions.
	eng := sim.NewEngine(12)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 2.0))
	r0 := ch.AddRadio(0, phy.Point{X: 0})
	r1 := ch.AddRadio(1, phy.Point{X: 1})
	r2 := ch.AddRadio(2, phy.Point{X: 2})
	m0 := New(eng, r0, DefaultParams())
	m1 := New(eng, r1, DefaultParams())
	m2 := New(eng, r2, DefaultParams())
	count := 0
	m1.OnReceive = func(*phy.Frame) { count++ }
	for i := 0; i < 20; i++ {
		m0.SendJID(r1.Addr(), make([]byte, 80), 0, nil)
		m2.SendJID(r1.Addr(), make([]byte, 80), 0, nil)
	}
	eng.Run()
	if count != 40 {
		t.Fatalf("delivered %d of 40 with carrier sensing", count)
	}
	if m0.Stats.DataDropped+m2.Stats.DataDropped > 0 {
		t.Fatal("drops despite carrier sensing")
	}
}

// TestFramePathAllocs pins the zero: once the pools of a two-node
// exchange are warm (job, transmission, events, and each side's neighbour
// record, which holds duplicate suppression), a Mac.SendJID through load,
// CSMA, air, ACK and the done callback allocates nothing — on either side.
func TestFramePathAllocs(t *testing.T) {
	eng, a, b := pair(13)
	delivered := 0
	b.OnReceive = func(*phy.Frame) { delivered++ }
	var last TxStatus
	done := func(s TxStatus) { last = s }
	payload := make([]byte, phy.MaxMACPayload)
	exchange := func() {
		a.SendJID(b.Radio().Addr(), payload, 0, done)
		eng.Run()
	}
	for i := 0; i < 300; i++ { // seq wraps once: both neighbour records exist
		exchange()
	}
	before := delivered
	if n := testing.AllocsPerRun(200, exchange); n != 0 {
		t.Fatalf("Mac.SendJID → ACKed delivery allocates %.1f objects per frame, want 0", n)
	}
	if last != TxOK || delivered-before != 201 { // AllocsPerRun adds one warm-up call
		t.Fatalf("status=%v delivered=%d", last, delivered-before)
	}
}

// TestBroadcastBackToBackIntact pins the rule that on-air bytes belong to
// the channel's transmission: a no-ACK frame finishes (radio OnTxDone)
// before the channel hands it to its receivers at the same instant, so a
// frame sent from its done callback re-encodes the recycled job's buffer
// first. Each receiver must still see every payload intact.
func TestBroadcastBackToBackIntact(t *testing.T) {
	eng := sim.NewEngine(14)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	a := New(eng, ch.AddRadio(0, phy.Point{X: 0}), DefaultParams())
	b := New(eng, ch.AddRadio(1, phy.Point{X: 1}), DefaultParams())
	c := New(eng, ch.AddRadio(2, phy.Point{X: -1}), DefaultParams())
	var gotB, gotC []string
	b.OnReceive = func(f *phy.Frame) { gotB = append(gotB, string(f.Payload)) }
	c.OnReceive = func(f *phy.Frame) { gotC = append(gotC, string(f.Payload)) }

	first := a.getJob()
	a.putJob(first) // the job the first Send will take
	reloaded := false
	a.SendJID(phy.BroadcastAddr, []byte("first frame: AAAAAAAAAAAAAAAA"), 0, func(TxStatus) {
		a.SendJID(phy.BroadcastAddr, []byte("second frame: BBBBBBBB"), 0, nil)
		reloaded = a.inflight == first && first.wire != nil && len(a.queue) == 0 // wire is this life's
	})
	eng.Run()

	if !reloaded {
		t.Fatal("the frame sent from the done callback did not reload the finished job's buffer; the test no longer exercises the hazard")
	}
	want := []string{"first frame: AAAAAAAAAAAAAAAA", "second frame: BBBBBBBB"}
	for name, got := range map[string][]string{"b": gotB, "c": gotC} {
		if !slices.Equal(got, want) {
			t.Fatalf("receiver %s got %q, want %q", name, got, want)
		}
	}
}

// checkJobPool asserts the free-list invariants: nothing on the list is
// in flight or queued, and everything on it is zeroed for its next use.
func checkJobPool(t *testing.T, m *Mac) {
	t.Helper()
	live := map[*txJob]bool{m.inflight: true}
	for _, j := range m.queue {
		live[j] = true
	}
	for j := m.freeJobs; j != nil; j = j.next {
		if live[j] {
			t.Fatal("free job is also in flight or queued")
		}
		if j.wire != nil || j.done != nil || j.pollDone != nil || j.frame.Payload != nil || j.indirect || j.jid != 0 {
			t.Fatalf("free job not zeroed: %+v", j)
		}
	}
}

// TestFreeJobsUnusedAndZeroed: with two hidden senders and the receiver
// answering each, so ACKs are owed mid-backoff, ACK windows are forfeited
// to outgoing ACKs (ackWasWaiting) and retries pile up, every job on a
// free list is neither in flight nor queued and is zeroed, checked from
// each done callback and at the end.
func TestFreeJobsUnusedAndZeroed(t *testing.T) {
	eng := sim.NewEngine(16)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	p := DefaultParams()
	p.maxRetries = 4
	var macs []*Mac
	for i := 0; i < 3; i++ {
		macs = append(macs, New(eng, ch.AddRadio(i, phy.Point{X: float64(i)}), p))
	}
	payload := make([]byte, 90)
	var feed func(m *Mac, dst phy.Addr)
	feed = func(m *Mac, dst phy.Addr) {
		m.SendJID(dst, payload, 0, func(TxStatus) {
			checkJobPool(t, m)
			if eng.Now() < sim.Time(10*sim.Second) {
				feed(m, dst)
			}
		})
	}
	feed(macs[0], macs[1].Radio().Addr())
	feed(macs[2], macs[1].Radio().Addr())
	feed(macs[1], macs[0].Radio().Addr())
	eng.RunUntil(sim.Time(12 * sim.Second))
	var retries, drops uint64
	for _, m := range macs {
		checkJobPool(t, m)
		retries += m.Stats.Retries
		drops += m.Stats.DataDropped
	}
	if retries == 0 || drops == 0 || macs[1].Stats.AcksSent == 0 {
		t.Fatalf("scenario too gentle: retries=%d drops=%d acks=%d", retries, drops, macs[1].Stats.AcksSent)
	}
}

// TestAckWaitBitTracksTimer pins what lets the radio keep ACK frames from
// a MAC that is not waiting for one: after every engine event the radio's
// ACK-wait bit equals awaitingAck() (the step slot holds the ACK
// timeout), the condition handleAck itself checks. The traffic is the hidden-terminal exchange above plus link
// loss, so timers are armed, answered and left to expire.
func TestAckWaitBitTracksTimer(t *testing.T) {
	eng := sim.NewEngine(18)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1.0, 1.0))
	ch.PER = func(src, dst *phy.Radio) float64 { return 0.2 }
	p := DefaultParams()
	p.maxRetries = 4
	var macs []*Mac
	for i := 0; i < 3; i++ {
		macs = append(macs, New(eng, ch.AddRadio(i, phy.Point{X: float64(i)}), p))
	}
	payload := make([]byte, 90)
	var feed func(m *Mac, dst phy.Addr)
	feed = func(m *Mac, dst phy.Addr) {
		m.SendJID(dst, payload, 0, func(TxStatus) {
			if eng.Now() < sim.Time(10*sim.Second) {
				feed(m, dst)
			}
		})
	}
	feed(macs[0], macs[1].Radio().Addr())
	feed(macs[2], macs[1].Radio().Addr())
	feed(macs[1], macs[0].Radio().Addr())
	armed := 0
	for eng.Step() {
		for i, m := range macs {
			if m.radio.AckWait() != m.awaitingAck() {
				t.Fatalf("t=%v mac %d: radio ACK-wait bit %v, awaiting an ACK %v (in flight %v, queue %d, sending ACK %v)",
					eng.Now(), i, m.radio.AckWait(), m.awaitingAck(), m.inflight != nil, len(m.queue), m.sendingAck)
			}
			if m.awaitingAck() {
				armed++
			}
		}
	}
	var okd, retries, drops uint64
	for _, m := range macs {
		okd += m.Stats.DataSent
		retries += m.Stats.Retries
		drops += m.Stats.DataDropped
	}
	if armed == 0 || okd == 0 || retries == 0 || drops == 0 {
		t.Fatalf("scenario too gentle: armed=%d sent=%d retries=%d drops=%d", armed, okd, retries, drops)
	}
}

// TestFrameQueuedBehindAckStartsWhenAckEnds: a frame sent while the MAC
// is transmitting an ACK waits on nothing of its own — no engine event is
// scheduled for it — and starts loading in the same event that ends the
// ACK.
func TestFrameQueuedBehindAckStartsWhenAckEnds(t *testing.T) {
	eng, a, b := pair(19)
	a.SendJID(b.Radio().Addr(), []byte("to b"), 0, nil)
	for !b.sendingAck {
		if !eng.Step() {
			t.Fatal("b never sent an ACK")
		}
	}
	pending := eng.Pending()
	b.SendJID(a.Radio().Addr(), []byte("queued behind the ACK"), 0, nil)
	if eng.Pending() != pending {
		t.Fatalf("queueing behind the ACK scheduled %d engine event(s)", eng.Pending()-pending)
	}
	if b.inflight != nil || len(b.queue) != 1 {
		t.Fatalf("frame started while the ACK is on air (in flight %v, queue %d)", b.inflight != nil, len(b.queue))
	}
	for b.sendingAck {
		if b.inflight != nil {
			t.Fatal("frame started before the ACK left the air")
		}
		eng.Step()
	}
	if b.Stats.AcksSent != 1 || b.inflight == nil || b.inflight.wire == nil || len(b.queue) != 0 {
		t.Fatalf("when the ACK left the air: acks %d, in flight %v, queue %d", b.Stats.AcksSent, b.inflight != nil, len(b.queue))
	}
	var got []string
	a.OnReceive = func(f *phy.Frame) { got = append(got, string(f.Payload)) }
	eng.Run()
	if !slices.Equal(got, []string{"queued behind the ACK"}) {
		t.Fatalf("a received %q", got)
	}
}

// TestAckSentInBackoffKeepsTheStep: sending an ACK cuts short only the
// sender's own wait for an ACK (stopAckWait). A frame of its own that is
// in CSMA keeps its backoff step in the slot, goes out once the ACK has
// left the air, and is delivered.
func TestAckSentInBackoffKeepsTheStep(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		eng, a, b := pair(seed)
		a.SendJID(b.Radio().Addr(), []byte("to b"), 0, nil)
		// b's frame starts loading after a's is in backoff, so b's is in
		// CSMA when a's arrives.
		eng.RunUntil(sim.Time(phy.LoadTime(phy.FrameOverhead + 4)))
		status := TxStatus(-1)
		b.SendJID(a.Radio().Addr(), []byte("to a"), 0, func(s TxStatus) { status = s })
		for !b.sendingAck && eng.Step() {
		}
		if !b.sendingAck || b.inflight == nil || b.inflight.attempts != 0 || b.awaitingAck() {
			continue // b's frame was not in CSMA when it sent the ACK
		}
		if !b.step.Armed() {
			t.Fatalf("seed %d: b sent an ACK and its frame in CSMA lost its %s step", seed, stepNames[b.next])
		}
		eng.Run()
		if status != TxOK || b.Stats.Retries != 0 {
			t.Fatalf("seed %d: b's frame ended %v after %d retries", seed, status, b.Stats.Retries)
		}
		return
	}
	t.Fatal("no seed had b send an ACK while its own frame was in CSMA")
}
