package phy

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"tcplp/internal/sim"
)

// lineTopo builds n radios on a line with unit spacing, decode range 1,
// sense range sense. All radios are left asleep.
func lineTopo(t *testing.T, n int, sense float64) (*sim.Engine, *Channel) {
	t.Helper()
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, NewUnitDisk(1.0, sense))
	for i := 0; i < n; i++ {
		ch.AddRadio(i, Point{X: float64(i)})
	}
	return eng, ch
}

func TestSimpleDelivery(t *testing.T) {
	eng, ch := lineTopo(t, 2, 1.0)
	a, b := ch.Radios()[0], ch.Radios()[1]
	b.SetListen(true)
	var got []byte
	b.OnReceive = func(data []byte) { got = append([]byte(nil), data...) } // valid for the callback only
	a.SetListen(true)
	frame := (&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr(), Payload: []byte("x")}).Encode()
	a.Transmit(frame)
	eng.Run()
	if got == nil {
		t.Fatal("frame not delivered")
	}
	var f Frame
	if err := DecodeFrameInto(&f, got); err != nil || string(f.Payload) != "x" {
		t.Fatalf("bad delivery: %+v %v", f, err)
	}
	if b.FramesReceived() != 1 || a.FramesSent() != 1 {
		t.Fatalf("counters: sent=%d recv=%d", a.FramesSent(), b.FramesReceived())
	}
}

func TestSleepingRadioMissesFrame(t *testing.T) {
	eng, ch := lineTopo(t, 2, 1.0)
	a, b := ch.Radios()[0], ch.Radios()[1]
	received := false
	b.OnReceive = func([]byte) { received = true }
	// b stays asleep
	a.SetListen(true)
	a.Transmit((&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr()}).Encode())
	eng.Run()
	if received {
		t.Fatal("sleeping radio received a frame")
	}
}

func TestOutOfRangeMissesFrame(t *testing.T) {
	eng, ch := lineTopo(t, 3, 1.0)
	a, c := ch.Radios()[0], ch.Radios()[2] // distance 2 > range 1
	received := false
	c.SetListen(true)
	c.OnReceive = func([]byte) { received = true }
	a.Transmit((&Frame{Type: FrameData, Dst: c.Addr(), Src: a.Addr()}).Encode())
	eng.Run()
	if received {
		t.Fatal("out-of-range radio received a frame")
	}
}

// Hidden terminal: radios 0 and 2 cannot sense each other (sense range 1)
// but both reach radio 1. Simultaneous transmissions must collide at 1.
func TestHiddenTerminalCollision(t *testing.T) {
	eng, ch := lineTopo(t, 3, 1.0)
	a, b, c := ch.Radios()[0], ch.Radios()[1], ch.Radios()[2]
	received := 0
	b.SetListen(true)
	b.OnReceive = func([]byte) { received++ }
	a.SetListen(true)
	c.SetListen(true)
	frame := func(src *Radio) []byte {
		return (&Frame{Type: FrameData, Dst: b.Addr(), Src: src.Addr(), Payload: make([]byte, 50)}).Encode()
	}
	// a and c start simultaneously; neither senses the other, and their
	// equal SPI-load phases mean their airtimes coincide exactly at b.
	a.Transmit(frame(a))
	c.Transmit(frame(c))
	eng.Run()
	if received != 0 {
		t.Fatalf("collided frames delivered: %d", received)
	}
	if b.ReceptionsDropped() == 0 {
		t.Fatal("collision not recorded as dropped reception")
	}
}

// With a larger sense range, radio 2 defers... but here we test that
// carrier sensing via ChannelClear sees a neighbor's transmission.
func TestCCA(t *testing.T) {
	eng, ch := lineTopo(t, 3, 2.0)
	a, c := ch.Radios()[0], ch.Radios()[2]
	a.SetListen(true)
	c.SetListen(true)
	if !c.ChannelClear() {
		t.Fatal("channel should be clear before any transmission")
	}
	a.Transmit((&Frame{Type: FrameData, Dst: AddrFromID(1), Src: a.Addr(), Payload: make([]byte, 80)}).Encode())
	// During SPI load the channel is still clear.
	eng.RunUntil(eng.Now().Add(LoadTime(103) / 2))
	if !c.ChannelClear() {
		t.Fatal("channel busy during SPI load phase")
	}
	// During airtime it is busy at sense range 2.
	eng.RunUntil(eng.Now().Add(LoadTime(103)/2 + AirTime(103)/2))
	if c.ChannelClear() {
		t.Fatal("channel clear while neighbor transmitting")
	}
	eng.Run()
	if !c.ChannelClear() {
		t.Fatal("channel busy after transmission ended")
	}
}

func TestHalfDuplex(t *testing.T) {
	eng, ch := lineTopo(t, 2, 1.0)
	a, b := ch.Radios()[0], ch.Radios()[1]
	received := false
	a.SetListen(true)
	b.SetListen(true)
	a.OnReceive = func([]byte) { received = true }
	big := (&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr(), Payload: make([]byte, 100)}).Encode()
	a.Transmit(big)
	// b transmits back while a is still mid-transmission: a must miss it.
	eng.Schedule(sim.Millisecond, func() {
		b.Transmit((&Frame{Type: FrameData, Dst: a.Addr(), Src: b.Addr()}).Encode())
	})
	eng.RunUntil(eng.Now().Add(3 * sim.Millisecond))
	if received {
		t.Fatal("transmitting radio received a frame")
	}
	eng.Run()
}

func TestPERLoss(t *testing.T) {
	eng, ch := lineTopo(t, 2, 1.0)
	ch.PER = func(src, dst *Radio) float64 { return 1.0 } // always corrupt
	a, b := ch.Radios()[0], ch.Radios()[1]
	received := false
	b.SetListen(true)
	b.OnReceive = func([]byte) { received = true }
	a.Transmit((&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr()}).Encode())
	eng.Run()
	if received {
		t.Fatal("PER=1 frame delivered")
	}
	if b.ReceptionsDropped() != 1 {
		t.Fatalf("dropped = %d, want 1", b.ReceptionsDropped())
	}
}

func TestDutyCycleAccounting(t *testing.T) {
	eng, ch := lineTopo(t, 1, 1.0)
	a := ch.Radios()[0]
	// Sleep 1s, listen 1s, sleep again.
	eng.Schedule(sim.Second, func() { a.SetListen(true) })
	eng.Schedule(2*sim.Second, func() { a.SetListen(false) })
	eng.RunUntil(sim.Time(4 * sim.Second))
	dc := a.DutyCycle()
	if dc < 0.24 || dc > 0.26 {
		t.Fatalf("duty cycle = %.3f, want 0.25", dc)
	}
	if a.TimeIn(StateListen) != sim.Second {
		t.Fatalf("listen time = %v, want 1s", a.TimeIn(StateListen))
	}
	a.ResetEnergy()
	if a.TimeIn(StateListen) != 0 {
		t.Fatal("ResetEnergy did not clear accumulators")
	}
}

func TestNoiseOnlyCorruptsButNeverDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, NewUnitDisk(1.0, 1.0))
	a := ch.AddRadio(0, Point{X: 0})
	b := ch.AddRadio(1, Point{X: 1})
	noise := ch.AddRadio(2, Point{X: 1.5})
	noise.NoiseOnly = true
	received := 0
	b.SetListen(true)
	b.OnReceive = func([]byte) { received++ }
	a.SetListen(true)
	noise.SetListen(true)

	// Noise alone is never decoded by b.
	noise.Transmit(make([]byte, 60))
	eng.Run()
	if received != 0 {
		t.Fatal("noise frame was decoded")
	}

	// Noise overlapping a real frame corrupts it at b.
	// The noise burst is scheduled so that, after its own SPI load, its
	// airtime overlaps a's frame airtime at b.
	a.Transmit((&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr(), Payload: make([]byte, 80)}).Encode())
	eng.Schedule(LoadTime(103), func() { noise.Transmit(make([]byte, 60)) })
	eng.Run()
	if received != 0 {
		t.Fatal("frame overlapped by noise was delivered")
	}
}

func TestGraphPropagation(t *testing.T) {
	eng := sim.NewEngine(1)
	g := NewGraph()
	ch := NewChannel(eng, g)
	a := ch.AddRadio(0, Point{})
	b := ch.AddRadio(1, Point{})
	c := ch.AddRadio(2, Point{})
	g.AddBiLink(0, 1)
	g.AddSense(2, 1) // c is sensed at b but not decodable
	for _, r := range ch.Radios() {
		r.SetListen(true)
	}
	got := 0
	b.OnReceive = func([]byte) { got++ }
	a.Transmit((&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr()}).Encode())
	eng.Run()
	if got != 1 {
		t.Fatalf("graph link delivery failed: %d", got)
	}
	c.Transmit((&Frame{Type: FrameData, Dst: b.Addr(), Src: c.Addr()}).Encode())
	eng.Run()
	if got != 1 {
		t.Fatal("sense-only link delivered a frame")
	}
}

func TestInterfererRaisesLoss(t *testing.T) {
	eng := sim.NewEngine(3)
	ch := NewChannel(eng, NewUnitDisk(1.0, 1.5))
	a := ch.AddRadio(0, Point{X: 0})
	b := ch.AddRadio(1, Point{X: 1})
	in := NewInterferer(ch, 99, Point{X: 1.2})
	in.burstMean = 4 * sim.Millisecond
	in.meanGap = 8 * sim.Millisecond
	a.SetListen(true)
	b.SetListen(true)
	received := 0
	b.OnReceive = func([]byte) { received++ }
	in.Start()
	sent := 0
	var sendLoop func()
	sendLoop = func() {
		if sent >= 200 {
			in.Stop()
			return
		}
		sent++
		a.Transmit((&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr(), Payload: make([]byte, 80)}).Encode())
		eng.Schedule(20*sim.Millisecond, sendLoop)
	}
	sendLoop()
	eng.RunUntil(sim.Time(10 * sim.Second))
	if received == 0 {
		t.Fatal("interference destroyed every frame (too aggressive)")
	}
	if received >= sent {
		t.Fatalf("interference destroyed nothing: %d/%d", received, sent)
	}
}

// TestRadioHotLayout guards the two properties the dense per-radio array
// is there for: an entry fits one cache line, and it holds nothing the
// collector has to scan or write-barrier.
func TestRadioHotLayout(t *testing.T) {
	if size := unsafe.Sizeof(radioHot{}); size > 64 {
		t.Fatalf("radioHot is %d bytes, want <= 64", size)
	}
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		default:
			t.Errorf("%s is a %s: radioHot must be pointer-free", path, typ.Kind())
		}
	}
	check("radioHot", reflect.TypeOf(radioHot{}))
}

// TestStateTimeTable walks two radios through every state and pins
// TimeIn and DutyCycle, before and after a ResetEnergy, to the values the
// per-state accounting has always produced.
func TestStateTimeTable(t *testing.T) {
	eng, ch := lineTopo(t, 2, 1.0)
	a, b := ch.Radios()[0], ch.Radios()[1]
	frame := (&Frame{Type: FrameData, Dst: b.Addr(), Src: a.Addr(), Payload: make([]byte, 77)}).Encode()
	load, air := LoadTime(len(frame)), AirTime(len(frame)) // 3200 µs, 3392 µs
	const ms = sim.Millisecond

	eng.Schedule(1000*ms, func() { b.SetListen(true) })
	eng.Schedule(2000*ms, func() { a.Transmit(frame) }) // from sleep: Tx until the frame has left the air
	eng.Schedule(2500*ms, func() { a.ResetEnergy() })
	eng.Schedule(3000*ms, func() { b.SetListen(false) })
	eng.Schedule(3500*ms, func() { a.Transmit(frame) }) // b is asleep: nobody receives it

	type row struct {
		at                    sim.Duration
		r                     *Radio
		sleep, listen, rx, tx sim.Duration
		state                 State
		dutyCycle             float64
	}
	rows := []row{
		{(500 * ms), a, 500 * ms, 0, 0, 0, StateSleep, 0},
		{(500 * ms), b, 500 * ms, 0, 0, 0, StateSleep, 0},
		{(1500 * ms), b, 1000 * ms, 500 * ms, 0, 0, StateListen, 500.0 / 1500},
		// a is mid-load: Tx since 2000 ms, nothing on air yet.
		{(2000*ms + load/2), a, 2000 * ms, 0, 0, load / 2, StateTx, float64(load/2) / float64(2000*ms+load/2)},
		{(2000*ms + load/2), b, 1000 * ms, 1000*ms + load/2, 0, 0, StateListen, float64(1000*ms+load/2) / float64(2000*ms+load/2)},
		// Half the frame is on air: b locked on when it started.
		{(2000*ms + load + air/2), b, 1000 * ms, 1000*ms + load, air / 2, 0, StateRx, float64(1000*ms+load+air/2) / float64(2000*ms+load+air/2)},
		{(2400 * ms), a, 2000 * ms, 400*ms - load - air, 0, load + air, StateListen, 400.0 / 2400},
		{(2400 * ms), b, 1000 * ms, 1400*ms - air, air, 0, StateListen, 1400.0 / 2400},
		// a was reset at 2500 ms while listening.
		{(2600 * ms), a, 0, 100 * ms, 0, 0, StateListen, 1},
		{(3200 * ms), b, 1200 * ms, 2000*ms - air, air, 0, StateSleep, 2000.0 / 3200},
		{(3500*ms + load + air/2), a, 0, 1000 * ms, 0, load + air/2, StateTx, 1},
		{(4000 * ms), a, 0, 1500*ms - load - air, 0, load + air, StateListen, 1},
		{(4000 * ms), b, 2000 * ms, 2000*ms - air, air, 0, StateSleep, 2000.0 / 4000},
	}
	for _, want := range rows {
		eng.RunUntil(sim.Time(want.at))
		r := want.r
		got := row{want.at, r, r.TimeIn(StateSleep), r.TimeIn(StateListen), r.TimeIn(StateRx), r.TimeIn(StateTx), r.State(), r.DutyCycle()}
		if got != want {
			t.Errorf("radio %d at %v:\n got sleep %v listen %v rx %v tx %v state %v dc %v\nwant sleep %v listen %v rx %v tx %v state %v dc %v",
				r.ID(), want.at, got.sleep, got.listen, got.rx, got.tx, got.state, got.dutyCycle,
				want.sleep, want.listen, want.rx, want.tx, want.state, want.dutyCycle)
		}
	}
	if b.FramesReceived() != 1 || b.ReceptionsDropped() != 0 {
		t.Fatalf("b recv %d dropped %d, want 1 and 0", b.FramesReceived(), b.ReceptionsDropped())
	}
}

// TestInterfererBurstAllocs: a burst's noise frames share one zero frame
// and one OnTxDone, so what an interferer allocates grows with the number
// of bursts, not with the frames in them.
func TestInterfererBurstAllocs(t *testing.T) {
	eng := sim.NewEngine(5)
	ch := NewChannel(eng, NewUnitDisk(1.0, 1.5))
	ch.AddRadio(0, Point{X: 1}).SetListen(true)
	in := NewInterferer(ch, 99, Point{})
	in.burstMean = 200 * sim.Millisecond // some 46 frames a burst
	in.meanGap = sim.Millisecond
	bursts := 0
	in.Activity = func(sim.Time) float64 { bursts++; return 1 } // asked once per burst
	in.Start()
	eng.RunFor(5 * sim.Second) // fill the engine's event pool
	bursts = 0
	sent := in.Radio().FramesSent()
	const runs = 5
	allocs := testing.AllocsPerRun(runs, func() { eng.RunFor(10 * sim.Second) })
	frames := float64(in.Radio().FramesSent()-sent) / (runs + 1)
	perRun := float64(bursts) / (runs + 1)
	if frames < 10*perRun {
		t.Fatalf("%.0f frames in %.0f bursts per run: bursts too short to tell", frames, perRun)
	}
	if allocs > 4*perRun {
		t.Fatalf("%.0f allocations per run for %.0f bursts of %.0f frames: want O(bursts)", allocs, perRun, frames)
	}
}

// A radio that locked onto a frame and then slept or started transmitting
// before its end has let go of it: the frame's end resolves only the
// receivers still on it, and asks PER about nothing else.
func TestLetGoReceiverNotResolved(t *testing.T) {
	eng := sim.NewEngine(1)
	g := NewGraph()
	ch := NewChannel(eng, g)
	for id := 0; id < 4; id++ {
		ch.AddRadio(id, Point{}).SetListen(true)
		if id > 0 {
			g.AddLink(0, id)
		}
	}
	rs := ch.Radios()
	a, sleeper, talker, keeper := rs[0], rs[1], rs[2], rs[3]
	var asked []int
	ch.PER = func(_, dst *Radio) float64 { asked = append(asked, dst.ID()); return 0 }
	got := map[int]int{}
	for _, r := range rs[1:] {
		r := r
		r.OnReceive = func([]byte) { got[r.ID()]++ }
	}
	frame := (&Frame{Type: FrameData, Dst: BroadcastAddr, Src: a.Addr(), Payload: make([]byte, 60)}).Encode()
	a.Transmit(frame)
	mid := LoadTime(len(frame)) + AirTime(len(frame))/2
	eng.Schedule(mid, func() {
		for _, r := range rs[1:] {
			if r.State() != StateRx {
				t.Fatalf("radio %d is %v mid-frame, want rx", r.ID(), r.State())
			}
		}
		sleeper.SetListen(false)
		talker.Transmit(make([]byte, 10))
	})
	eng.Run()
	if fmt.Sprint(asked) != "[3]" || got[keeper.ID()] != 1 || len(got) != 1 {
		t.Fatalf("PER asked about %v, frames handed up %v: want only radio 3", asked, got)
	}
	if c := ch.Counters(); c.Frames != 2 || c.Resolved != 1 {
		t.Fatalf("counters %+v: want 2 frames on air, 1 reception resolved", c)
	}
	for _, r := range []*Radio{sleeper, talker} {
		if r.FramesReceived() != 0 || r.ReceptionsDropped() != 1 {
			t.Fatalf("radio %d: received %d, dropped %d; want 0 and 1", r.ID(), r.FramesReceived(), r.ReceptionsDropped())
		}
	}
}

// TestLockedSetAllocs: a frame that 48 listeners lock onto costs no
// allocation to resolve. The locked set is a list threaded through the
// listeners' own entries, so it neither grows per frame nor per
// transmission object.
func TestLockedSetAllocs(t *testing.T) {
	const listeners = 48
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, NewUnitDisk(1.0, 1.5))
	ch.Reserve(listeners + 1)
	sender := ch.AddRadio(0, Point{})
	sender.SetListen(true)
	for i := 1; i <= listeners; i++ {
		angle := 2 * math.Pi * float64(i) / listeners
		ch.AddRadio(i, Point{X: 0.4 * math.Cos(angle), Y: 0.4 * math.Sin(angle)}).SetListen(true)
	}
	frame := (&Frame{Type: FrameData, Dst: BroadcastAddr, Src: sender.Addr(), Payload: make([]byte, 80)}).Encode()
	send := func() { sender.Transmit(frame); eng.Run() }
	send() // neighbor list, transmit closures, transmission object, event pool
	before := ch.Counters()
	const runs = 20
	if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
		t.Fatalf("%.1f allocations per frame, want 0", allocs)
	}
	if got := ch.Counters().Resolved - before.Resolved; got != (runs+1)*listeners {
		t.Fatalf("%d receptions resolved over %d frames, want %d each", got, runs+1, listeners)
	}
}
