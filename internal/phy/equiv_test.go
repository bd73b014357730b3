package phy_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tcplp/internal/mac"
	"tcplp/internal/mesh"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// unitDisk returns the unit-disk model, bare — the channel asks it about
// the 3×3 grid cells around a radio — or, with allPairs set, wrapped so the
// channel cannot see what it is and asks it about every pair of radios: the
// reference the grid-asked neighbor lists are compared against.
func unitDisk(txRange, senseRange float64, allPairs bool) phy.Propagation {
	ud := phy.NewUnitDisk(txRange, senseRange)
	if allPairs {
		return struct{ phy.Propagation }{ud}
	}
	return ud
}

// phyTrace runs scripted contending traffic over topo and returns a full
// delivery/collision trace: every reception resolved at a frame's end
// (sender, receiver, time: the PER model is asked once per resolved
// receiver), every frame handed up (receiver, size, time) plus each
// radio's sent/received/dropped counters. The per-link PER draw consumes
// the shared engine RNG, so the trace also proves the delivery *iteration
// order* matches — any reordering desynchronizes the stream — and the
// resolutions of one frame's end must come in neighbor (here: id) order.
// Radios also sleep for a moment at scripted times, and transmit whenever
// the script says, so receivers let go of frames mid-air and must not be
// resolved.
//
// With filtered set, every radio recognises addresses and the script puts
// real frames on air — unicast to a random node, broadcast, ACKs and
// malformed bytes — while radios' ACK-wait bits flip at scripted times, so
// the trace covers every branch of the frame filter.
func phyTrace(t *testing.T, topo mesh.Topology, seed int64, brute, filtered bool) string {
	t.Helper()
	eng := sim.NewEngine(seed)
	ch := phy.NewChannel(eng, unitDisk(topo.TxRange, topo.SenseRange, brute))
	var trace strings.Builder
	var lastSrc, lastDst int
	var lastAt sim.Time
	ch.PER = func(src, dst *phy.Radio) float64 {
		if src.ID() == lastSrc && eng.Now() == lastAt && dst.ID() <= lastDst {
			t.Fatalf("frame from %d at %d: resolved receiver %d after %d, want neighbor order", src.ID(), lastAt, dst.ID(), lastDst)
		}
		if dst.State() != phy.StateRx {
			t.Fatalf("frame from %d at %d: resolved receiver %d in state %v", src.ID(), eng.Now(), dst.ID(), dst.State())
		}
		lastSrc, lastDst, lastAt = src.ID(), dst.ID(), eng.Now()
		fmt.Fprintf(&trace, "resolve %d→%d at %d\n", src.ID(), dst.ID(), eng.Now())
		return 0.05
	}
	radios := make([]*phy.Radio, topo.N())
	for i, p := range topo.Positions {
		r := ch.AddRadio(i, p)
		r.SetListen(true)
		r.SetAddressFilter(filtered)
		i := i
		r.OnReceive = func(data []byte) {
			fmt.Fprintf(&trace, "rx %d len %d at %d\n", i, len(data), eng.Now())
		}
		radios[i] = r
	}
	script := rand.New(rand.NewSource(seed + 99))
	for k := 0; k < 500; k++ {
		r := radios[script.Intn(len(radios))]
		at := sim.Time(script.Int63n(int64(2 * sim.Second)))
		frame := make([]byte, 20+script.Intn(80)) // malformed: no addressing mode
		if filtered {
			data := phy.Frame{Type: phy.FrameData, Src: r.Addr(), Payload: frame[:len(frame)-20]}
			switch script.Intn(4) {
			case 0:
				data.Dst = radios[script.Intn(len(radios))].Addr()
				frame = data.Encode()
			case 1:
				data.Dst = phy.BroadcastAddr
				frame = data.Encode()
			case 2:
				frame = phy.AckFor(uint8(k), false).Encode()
			}
			waiter, on := radios[script.Intn(len(radios))], script.Intn(2) == 0
			eng.At(at, func() { waiter.SetAckWait(on) })
		}
		eng.At(at, func() {
			if !r.Transmitting() {
				r.Transmit(frame)
			}
		})
		if k%4 == 0 {
			// r's nearest radio naps from the middle of r's frame.
			near, best := -1, 0.0
			for j, p := range topo.Positions {
				dx, dy := p.X-topo.Positions[r.ID()].X, p.Y-topo.Positions[r.ID()].Y
				if d := dx*dx + dy*dy; j != r.ID() && (near < 0 || d < best) {
					near, best = j, d
				}
			}
			sleeper := radios[near]
			mid := at + sim.Time(phy.LoadTime(len(frame))+phy.AirTime(len(frame))/2)
			nap := sim.Duration(script.Int63n(int64(3 * sim.Millisecond)))
			eng.At(mid, func() {
				fmt.Fprintf(&trace, "nap %d while %v at %d\n", sleeper.ID(), sleeper.State(), eng.Now())
				sleeper.SetListen(false)
				eng.Schedule(nap, func() { sleeper.SetListen(true) })
			})
		}
	}
	eng.Run()
	for i, r := range radios {
		fmt.Fprintf(&trace, "radio %d sent %d recv %d dropped %d\n",
			i, r.FramesSent(), r.FramesReceived(), r.ReceptionsDropped())
	}
	return trace.String()
}

// handedUp counts the frames a phyTrace trace handed up: its "rx" lines,
// not the "nap … while rx" lines that also contain "rx ".
func handedUp(trace string) int {
	return strings.Count("\n"+trace, "\nrx ")
}

// TestGridIndexMatchesBruteForce is the PHY-index equivalence regression:
// office, twinleaf, and a seeded random-geometric field must produce
// bit-identical delivery and collision traces whether the one fan-out walks
// neighbor lists asked through the grid or asked of every pair.
func TestGridIndexMatchesBruteForce(t *testing.T) {
	topos := map[string]mesh.Topology{
		"office":   mesh.Office(),
		"twinleaf": mesh.TwinLeaf(4, 20),
		"random":   mesh.RandomGeometric(150, 8, 5),
	}
	for name, topo := range topos {
		for seed := int64(1); seed <= 3; seed++ {
			promiscuous := 0 // frames handed up with no radio filtering
			for _, filtered := range []bool{false, true} {
				grid := phyTrace(t, topo, seed, false, filtered)
				brute := phyTrace(t, topo, seed, true, filtered)
				if grid != brute {
					gl, bl := strings.Split(grid, "\n"), strings.Split(brute, "\n")
					for i := 0; i < len(gl) && i < len(bl); i++ {
						if gl[i] != bl[i] {
							t.Fatalf("%s seed %d filtered %v: traces diverge at line %d:\n  grid:  %s\n  brute: %s",
								name, seed, filtered, i, gl[i], bl[i])
						}
					}
					t.Fatalf("%s seed %d filtered %v: trace lengths differ (%d vs %d lines)", name, seed, filtered, len(gl), len(bl))
				}
				if !strings.Contains(grid, "while rx") {
					t.Fatalf("%s seed %d filtered %v: no radio slept mid-reception", name, seed, filtered)
				}
				if !filtered {
					promiscuous = handedUp(grid)
				} else if handedUp(grid) >= promiscuous {
					t.Fatalf("%s seed %d: the filter withheld nothing", name, seed)
				}
			}
		}
	}
}

// Moving a radio must invalidate cached neighbor sets: after SetPos the
// grid-asked and all-pairs lists agree on the new geometry.
func TestGridIndexSetPosInvalidates(t *testing.T) {
	run := func(brute bool) string {
		eng := sim.NewEngine(1)
		ch := phy.NewChannel(eng, unitDisk(10, 13, brute))
		var trace strings.Builder
		a := ch.AddRadio(0, phy.Point{X: 0})
		b := ch.AddRadio(1, phy.Point{X: 100}) // out of range
		b.SetListen(true)
		a.SetListen(true)
		b.OnReceive = func(data []byte) { fmt.Fprintf(&trace, "b got %d at %d\n", len(data), eng.Now()) }
		eng.Schedule(10*sim.Millisecond, func() { a.Transmit(make([]byte, 30)) })
		// Walk b into range, then transmit again.
		eng.Schedule(100*sim.Millisecond, func() { b.SetPos(phy.Point{X: 8}) })
		eng.Schedule(200*sim.Millisecond, func() { a.Transmit(make([]byte, 40)) })
		eng.Run()
		fmt.Fprintf(&trace, "recv %d dropped %d\n", b.FramesReceived(), b.ReceptionsDropped())
		return trace.String()
	}
	grid, brute := run(false), run(true)
	if grid != brute {
		t.Fatalf("SetPos behavior diverged:\ngrid:\n%s\nbrute:\n%s", grid, brute)
	}
	if !strings.Contains(grid, "b got 40") {
		t.Fatalf("moved radio did not receive: %s", grid)
	}
}

// A radio registered after a sender's first frame joins that sender's
// fan-out from the next frame on, on both sides: here an interferer dropped
// inside a's sense range (and out of its decode range) after a has
// transmitted once. a's next frame must raise energy at it — its CCA reads
// busy — and its noise must reach a and b: it trips a's CCA and corrupts
// the frame b is receiving.
func TestLateRadioJoinsFanout(t *testing.T) {
	for _, brute := range []bool{false, true} {
		eng := sim.NewEngine(1)
		ch := phy.NewChannel(eng, unitDisk(10, 13, brute))
		a := ch.AddRadio(0, phy.Point{X: 0})
		b := ch.AddRadio(1, phy.Point{X: 8})
		a.SetListen(true)
		b.SetListen(true)
		got := 0
		b.OnReceive = func(data []byte) { got++ }
		eng.Schedule(10*sim.Millisecond, func() { a.Transmit(make([]byte, 30)) })
		var in *phy.Interferer
		eng.Schedule(50*sim.Millisecond, func() {
			in = phy.NewInterferer(ch, 900, phy.Point{X: 12})
			in.Radio().SetListen(true)
		})
		const second = 100 * sim.Millisecond
		eng.Schedule(second, func() { a.Transmit(make([]byte, 100)) })
		onAir := second + phy.LoadTime(100)
		eng.Schedule(onAir+phy.AirTime(100)/4, func() {
			if in.Radio().ChannelClear() {
				t.Errorf("brute %v: late radio does not sense the sender's next frame", brute)
			}
			in.Radio().Transmit(make([]byte, 10))
		})
		eng.Schedule(onAir+phy.AirTime(100)/4+phy.LoadTime(10)+phy.AirTime(10)/2, func() {
			if b.ChannelClear() {
				t.Errorf("brute %v: late radio's noise is not sensed at b", brute)
			}
		})
		var clearAtA bool
		eng.Schedule(200*sim.Millisecond, func() { in.Radio().Transmit(make([]byte, 50)) })
		eng.Schedule(200*sim.Millisecond+phy.LoadTime(50)+phy.AirTime(50)/2, func() { clearAtA = a.ChannelClear() })
		eng.Run()
		if clearAtA {
			t.Errorf("brute %v: late radio's noise is not sensed at the earlier sender", brute)
		}
		if got != 1 || b.FramesReceived() != 1 || b.ReceptionsDropped() != 1 {
			t.Errorf("brute %v: b handed %d, recv %d dropped %d; want the first frame delivered and the second corrupted",
				brute, got, b.FramesReceived(), b.ReceptionsDropped())
		}
	}
}

// A phy.Graph propagation model has no geometry, so the channel asks it
// about every pair of radios and runs the same fan-out over the answer.
// Here 0 and 2 are hidden from each other (neither senses the other) and
// both reach 1: a lone frame is delivered, overlapping frames collide at 1,
// and a sense-only link shows the channel busy without delivering.
func TestGraphChannelHiddenTerminals(t *testing.T) {
	eng := sim.NewEngine(1)
	g := phy.NewGraph()
	g.AddBiLink(0, 1)
	g.AddBiLink(1, 2)
	g.AddSense(0, 3)
	ch := phy.NewChannel(eng, g)
	var trace strings.Builder
	radios := make([]*phy.Radio, 4)
	for i := range radios {
		r := ch.AddRadio(i, phy.Point{})
		r.SetListen(true)
		i := i
		r.OnReceive = func(data []byte) { fmt.Fprintf(&trace, "rx %d len %d\n", i, len(data)) }
		radios[i] = r
	}
	// Lone frame 0→1: delivered to 1 only; 3 senses it but cannot decode.
	eng.Schedule(10*sim.Millisecond, func() {
		radios[0].Transmit(make([]byte, 30))
	})
	eng.Schedule(10*sim.Millisecond+phy.LoadTime(30)+phy.AirTime(30)/2, func() {
		if radios[3].ChannelClear() {
			t.Error("sense-only neighbor does not see the channel busy")
		}
		if !radios[2].ChannelClear() {
			t.Error("hidden node senses a transmitter it has no link to")
		}
	})
	// Hidden terminals 0 and 2 overlap at 1: both frames are lost there.
	eng.Schedule(100*sim.Millisecond, func() {
		radios[0].Transmit(make([]byte, 40))
		radios[2].Transmit(make([]byte, 40))
	})
	// The frame filter under a Graph: 2 recognises addresses, 0 stays
	// promiscuous. Both decode each frame 1 sends; 2 is handed only its own.
	radios[2].SetAddressFilter(true)
	for i, dst := range []int{2, 0} {
		f := &phy.Frame{Type: phy.FrameData, Dst: phy.AddrFromID(dst), Src: radios[1].Addr(), Payload: make([]byte, 10*i)}
		eng.Schedule(sim.Duration(200+100*i)*sim.Millisecond, func() { radios[1].Transmit(f.Encode()) })
	}
	eng.Run()
	if got, want := trace.String(), "rx 1 len 30\nrx 0 len 23\nrx 2 len 23\nrx 0 len 33\n"; got != want {
		t.Fatalf("deliveries = %q, want %q", got, want)
	}
	if radios[1].FramesReceived() != 1 || radios[1].ReceptionsDropped() != 1 {
		t.Fatalf("radio 1 recv %d dropped %d, want 1 and 1",
			radios[1].FramesReceived(), radios[1].ReceptionsDropped())
	}
	if radios[0].FramesReceived() != 2 || radios[2].FramesReceived() != 2 {
		t.Fatalf("radios 0 and 2 decoded %d and %d frames, want 2 each: the filter must not hide a frame from the counter",
			radios[0].FramesReceived(), radios[2].FramesReceived())
	}
	if radios[3].FramesReceived() != 0 {
		t.Fatalf("sense-only neighbor decoded %d frames", radios[3].FramesReceived())
	}
}

// TestFilterHandsUpOnlyWantedFrames: in a clique of 50 MACs every radio
// decodes every frame (FramesReceived rises by 49 per frame), but a frame
// goes up to OnReceive only where it is wanted: a unicast data frame at
// its destination, its ACK at the sender waiting for it, a broadcast
// everywhere, a malformed frame nowhere.
func TestFilterHandsUpOnlyWantedFrames(t *testing.T) {
	const n = 50
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(1, 1))
	macs, radios := make([]*mac.Mac, n), make([]*phy.Radio, n)
	handedUp := make([]int, n)
	for i := range macs {
		r := ch.AddRadio(i, phy.Point{})
		macs[i], radios[i] = mac.New(eng, r, mac.DefaultParams()), r
		i, up := i, r.OnReceive
		r.OnReceive = func(data []byte) { handedUp[i]++; up(data) }
	}
	decoded := func() (sum uint64) {
		for _, r := range radios {
			sum += r.FramesReceived()
		}
		return sum
	}
	// step runs send to completion and checks who was handed how many frames.
	step := func(name string, send func(), frames uint64, want map[int]int) {
		t.Helper()
		before := decoded()
		for i := range handedUp {
			handedUp[i] = 0
		}
		send()
		eng.Run()
		if got := decoded() - before; got != frames*(n-1) {
			t.Errorf("%s: %d receptions decoded, want %d", name, got, frames*(n-1))
		}
		for i, got := range handedUp {
			w, ok := want[i]
			if !ok {
				w = want[-1]
			}
			if got != w {
				t.Errorf("%s: radio %d was handed %d frames, want %d", name, i, got, w)
			}
		}
	}
	status := mac.TxStatus(-1)
	step("unicast + ACK", func() {
		macs[3].SendJID(radios[7].Addr(), []byte("x"), 0, func(s mac.TxStatus) { status = s })
	}, 2, map[int]int{7: 1, 3: 1, -1: 0})
	if status != mac.TxOK || macs[7].Stats.AcksSent != 1 {
		t.Fatalf("unicast status %v, acks sent %d", status, macs[7].Stats.AcksSent)
	}
	step("broadcast", func() { macs[3].SendJID(phy.BroadcastAddr, []byte("x"), 0, nil) }, 1, map[int]int{3: 0, -1: 1})
	// The raw frames below are put on air past radio 3's MAC, whose
	// OnTxDone would take them for its own.
	radios[3].OnTxDone = nil
	step("malformed", func() { radios[3].Transmit(make([]byte, 40)) }, 1, map[int]int{-1: 0})
	step("stray ACK", func() { radios[3].Transmit(phy.AckFor(9, false).Encode()) }, 1, map[int]int{-1: 0})
}
