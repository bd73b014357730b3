package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tcplp/internal/app"
	"tcplp/internal/coap"
	"tcplp/internal/ip6"
	"tcplp/internal/mesh"
	"tcplp/internal/netem"
	"tcplp/internal/phy"
	"tcplp/internal/scenario"
	"tcplp/internal/sim"
	"tcplp/internal/sixlowpan"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// Kernels time one layer's public entry points from outside, with no
// other layer underneath: the median over batches of ns and heap
// allocations per operation.
const (
	kernelBatches  = 5
	kernelBatchDur = 200 * time.Millisecond
	metroNodes     = 10000 // the fan-out and footprint kernels' network
	metroDensity   = 16
)

// sink keeps kernel results live so the compiler cannot drop the calls.
var sink any

// kernel runs op in batches of at least kernelBatchDur (one short batch
// under -smoke); op returns how many operations it performed.
func (h *harness) kernel(name string, op func() int) (nsPerOp, allocsPerOp float64) {
	end := h.spans.begin(name)
	defer end()
	batches, dur := kernelBatches, kernelBatchDur
	if h.opt.smoke {
		batches, dur = 1, 5*time.Millisecond
	}
	// The warm-up call also sizes the chunk run between clock reads, so
	// reading the clock stays under 1% of a batch.
	t0 := time.Now()
	op()
	chunk := 1
	if per := time.Since(t0); per < 100*time.Microsecond {
		chunk = int(100*time.Microsecond/(per+1)) + 1
	}
	var ns, allocs []float64
	var m0, m1 runtime.MemStats
	for b := 0; b < batches; b++ {
		ops := 0
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for time.Since(start) < dur {
			for i := 0; i < chunk; i++ {
				ops += op()
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(elapsed.Nanoseconds())/float64(ops))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(ops))
	}
	_, nsMed, _ := quartiles(ns)
	_, allocMed, _ := quartiles(allocs)
	return nsMed, allocMed
}

// simScheduleFire: 10 000 self-rescheduling timers whose horizons span
// 10 µs to 4 min, so every level of the timer wheel is exercised.
func simScheduleFire(seed int64) func() int {
	horizons := []sim.Duration{
		10 * sim.Microsecond, 100 * sim.Microsecond, sim.Millisecond, 10 * sim.Millisecond,
		100 * sim.Millisecond, sim.Second, 10 * sim.Second, sim.Minute, 4 * sim.Minute,
	}
	eng := sim.NewEngine(seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 10000; i++ {
		var tick func()
		tick = func() { eng.Schedule(horizons[rng.Intn(len(horizons))], tick) }
		eng.Schedule(horizons[rng.Intn(len(horizons))], tick)
	}
	return func() int {
		before := eng.Processed()
		eng.RunFor(sim.Second)
		return int(eng.Processed() - before)
	}
}

// phyFrameCodec: Frame.Encode + DecodeFrameInto of a maximal frame.
func phyFrameCodec() func() int {
	f := &phy.Frame{
		Type: phy.FrameData, Seq: 7, Dst: phy.AddrFromID(1), Src: phy.AddrFromID(2),
		AckRequest: true, Payload: make([]byte, phy.MaxMACPayload),
	}
	var into phy.Frame
	return func() int {
		if err := phy.DecodeFrameInto(&into, f.Encode()); err != nil {
			panic(err)
		}
		return 1
	}
}

// phyTxFanout: one maximal Radio.Transmit run to completion on a channel
// of listening radios laid out as topo.
func phyTxFanout(seed int64, topo mesh.Topology) func() int {
	eng := sim.NewEngine(seed)
	ch := phy.NewChannel(eng, phy.NewUnitDisk(topo.TxRange, topo.SenseRange))
	received := 0
	for i, p := range topo.Positions {
		r := ch.AddRadio(i, p)
		r.OnReceive = func([]byte) { received++ }
		r.SetListen(true)
	}
	data := make([]byte, phy.MaxPHYPayload)
	radios, next := ch.Radios(), 0
	return func() int {
		radios[next].Transmit(data)
		eng.Run()
		next = (next + 97) % len(radios)
		return 1
	}
}

// sixlowpanFragReasm: fragment one five-frame datagram and reassemble it.
func sixlowpanFragReasm(seed int64) func() int {
	hdr := &ip6.Header{NextHeader: ip6.ProtoTCP, HopLimit: 64, Src: ip6.AddrFromID(1), Dst: ip6.AddrFromID(2)}
	chdr := sixlowpan.CompressHeader(hdr)
	payload := make([]byte, stack.SegmentSizing(defaultSegFrames, true).SegmentPayload)
	var fr sixlowpan.Fragmenter
	re := sixlowpan.NewReassembler(sim.NewEngine(seed))
	src := phy.AddrFromID(1)
	return func() int {
		var pkt *ip6.Packet
		for _, frag := range fr.Fragment(chdr, payload, phy.MaxMACPayload) {
			p, err := re.Input(src, frag, 0)
			if err != nil {
				panic(err)
			}
			if p != nil {
				pkt = p
			}
			fr.Release(frag)
		}
		if pkt == nil {
			panic("sixlowpan kernel: datagram did not reassemble")
		}
		return 1
	}
}

func sixlowpanIPHC() func() int {
	hdr := &ip6.Header{NextHeader: ip6.ProtoTCP, HopLimit: 64, Src: ip6.AddrFromID(1), Dst: ip6.AddrFromID(2)}
	return func() int {
		h, _, err := sixlowpan.DecompressHeader(sixlowpan.CompressHeader(hdr))
		if err != nil {
			panic(err)
		}
		sink = h
		return 1
	}
}

func ip6Codec() func() int {
	pkt := &ip6.Packet{
		Header:  ip6.Header{NextHeader: ip6.ProtoTCP, HopLimit: 64, Src: ip6.AddrFromID(1), Dst: ip6.AddrFromID(2)},
		Payload: make([]byte, 472),
	}
	var buf []byte
	return func() int {
		buf = pkt.AppendEncode(buf[:0])
		p, err := ip6.Decode(buf)
		if err != nil {
			panic(err)
		}
		sink = p
		return 1
	}
}

// tcplpSegmentCodec: an MSS-sized segment with timestamps and one SACK block.
func tcplpSegmentCodec() func() int {
	src, dst := ip6.AddrFromID(1), ip6.AddrFromID(2)
	seg := &tcplp.Segment{
		SrcPort: 49152, DstPort: 80, SeqNum: 1000, AckNum: 2000,
		Flags: tcplp.FlagACK | tcplp.FlagPSH, Window: 1848,
		HasTS: true, TSVal: 1, TSEcr: 2,
		SACKBlocks: []tcplp.SACKBlock{{Start: 3000, End: 3440}},
		Payload:    make([]byte, stack.SegmentSizing(defaultSegFrames, true).MSS),
	}
	var buf []byte
	return func() int {
		buf = seg.AppendEncode(buf, src, dst)
		s, err := tcplp.DecodeSegment(src, dst, buf)
		if err != nil {
			panic(err)
		}
		sink = s
		return 1
	}
}

// tcplpLoopback: a transfer between two tcplp.Stacks joined only by a
// 1 ms scheduled hand-off — TCP logic with no link layers under it.
// One operation is one segment either stack received.
func tcplpLoopback(seed int64, bytes int) func() int {
	opt := stack.DefaultOptions()
	cfg := stack.DerivedTCPConfig(opt, opt.TCP)
	payload := make([]byte, bytes)
	return func() int {
		eng := sim.NewEngine(seed)
		a := tcplp.NewStack(eng, ip6.AddrFromID(0), cfg)
		b := tcplp.NewStack(eng, ip6.AddrFromID(1), cfg)
		a.Output = func(pkt *ip6.Packet) { eng.Schedule(sim.Millisecond, func() { b.Input(pkt) }) }
		b.Output = func(pkt *ip6.Packet) { eng.Schedule(sim.Millisecond, func() { a.Input(pkt) }) }
		received := 0
		buf := make([]byte, 2048)
		b.Listen(80, func(c *tcplp.Conn) {
			c.OnReadable = func() {
				for n := c.Read(buf); n > 0; n = c.Read(buf) {
					received += n
				}
			}
		})
		client := a.Connect(ip6.AddrFromID(1), 80)
		sent := 0
		pump := func() {
			for sent < bytes {
				n, err := client.Write(payload[sent:])
				if err != nil || n == 0 {
					return
				}
				sent += n
			}
		}
		client.OnEstablished = pump
		client.OnWritable = pump
		for received < bytes && eng.Now() < sim.Time(10*sim.Minute) {
			eng.RunFor(sim.Second)
		}
		if received != bytes {
			panic(fmt.Sprintf("tcplp loopback kernel: received %d of %d bytes", received, bytes))
		}
		return int(a.Stats.SegsIn + b.Stats.SegsIn)
	}
}

func coapCodec() func() int {
	m := &coap.Message{
		Type: coap.CON, Code: coap.CodePOST, MessageID: 0x1234, Token: []byte{1, 2},
		Payload: make([]byte, 4*app.ReadingSize),
	}
	m.AddOption(coap.OptUriPath, []byte("readings"))
	m.AddOption(coap.OptContentFormat, []byte{42})
	return func() int {
		d, err := coap.Decode(m.Encode())
		if err != nil {
			panic(err)
		}
		sink = d
		return 1
	}
}

// netemWANSend: WANLink.Send into a queue that drains at the rate it
// fills, so the link stays in steady state.
func netemWANSend(seed int64) func() int {
	const size = 128
	eng := sim.NewEngine(seed)
	cfg := netem.WANConfig{BandwidthKbps: 256, Delay: 25 * sim.Millisecond, QueueCap: 256}
	link := netem.NewWANLink(eng, cfg, seed)
	perMsg := sim.Duration(float64(size*8) / (cfg.BandwidthKbps * 1000) * float64(sim.Second))
	delivered := 0
	deliver := func() { delivered++ }
	return func() int {
		if !link.Send(size, deliver, nil) {
			panic("netem kernel: draining queue overflowed")
		}
		eng.RunFor(perMsg)
		return 1
	}
}

func scenarioParseExpand(spec []byte) func() int {
	return func() int {
		specs, err := scenario.ParseSpecs(spec)
		if err != nil {
			panic(err)
		}
		cells := 0
		for _, s := range specs {
			cells += len(s.Expand())
		}
		sink = cells
		return 1
	}
}

// buildTopology is the workload's own layout, built through the same
// public generators the scenario layer calls.
func buildTopology(t scenario.TopologySpec) (mesh.Topology, error) {
	spacing := t.Spacing
	if spacing == 0 {
		spacing = 10
	}
	switch t.Kind {
	case scenario.TopoChain:
		return mesh.Chain(t.Nodes, spacing), nil
	case scenario.TopoStar:
		return mesh.Star(t.Nodes, spacing), nil
	case scenario.TopoOffice:
		return mesh.Office(), nil
	case scenario.TopoRandomGeometric:
		return mesh.RandomGeometric(t.Nodes, t.Density, t.Seed), nil
	}
	return mesh.Topology{}, fmt.Errorf("benchmark workloads do not use topology kind %q", t.Kind)
}

// flowSources lists the mesh nodes a cell's flows originate at: the
// endpoints whose routes toward the border router (node 0) and back the
// run computes.
func flowSources(cell *scenario.Spec, nodes int) []int {
	var out []int
	for _, f := range cell.Flows {
		switch {
		case f.PerDevice:
			step := f.Stride
			if step < 1 {
				step = 1
			}
			for id := 1; id < nodes; id += step {
				out = append(out, id)
			}
		case f.From.End:
			out = append(out, nodes-1)
		case !f.From.Host:
			out = append(out, f.From.ID)
		}
	}
	return out
}

// walkRoutes computes routes over adj and follows the next hops from
// every source to the border router and back, which is what forwarding a
// flow's packets and their replies asks of mesh.Routes.
func walkRoutes(adj [][]int, sources []int) *mesh.Routes {
	routes := mesh.ComputeRoutes(adj)
	follow := func(from, to int) {
		for at, hops := from, 0; at != to && hops <= len(adj); hops++ {
			next, ok := routes.NextHop(at, to)
			if !ok {
				panic(fmt.Sprintf("mesh kernel: no route %d -> %d", from, to))
			}
			at = next
		}
	}
	for _, s := range sources {
		if s != 0 {
			follow(s, 0)
			follow(0, s)
		}
	}
	return routes
}

// liveHeapGrowth runs build, collects, and returns how many live heap
// bytes the value it returned holds.
func liveHeapGrowth(build func() any) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	v := build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(v)
	return float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
}
