package tcplp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
)

func TestScoreboardAddMerge(t *testing.T) {
	var sb scoreboard
	sb.Add(SACKBlock{100, 200}, 0)
	sb.Add(SACKBlock{300, 400}, 0)
	sb.Add(SACKBlock{150, 350}, 0) // bridges the two
	if len(sb.ranges) != 1 || sb.ranges[0] != (SACKBlock{100, 400}) {
		t.Fatalf("merge: %v", sb.ranges)
	}
	if sb.SackedBytes() != 300 {
		t.Fatalf("sacked = %d", sb.SackedBytes())
	}
}

func TestScoreboardStaleBlocks(t *testing.T) {
	var sb scoreboard
	sb.Add(SACKBlock{100, 200}, 250) // entirely below una
	if !sb.Empty() {
		t.Fatalf("stale block recorded: %v", sb.ranges)
	}
	sb.Add(SACKBlock{200, 300}, 250) // straddles una
	if len(sb.ranges) != 1 || sb.ranges[0] != (SACKBlock{250, 300}) {
		t.Fatalf("straddling block: %v", sb.ranges)
	}
}

func TestScoreboardNextHole(t *testing.T) {
	var sb scoreboard
	sb.Add(SACKBlock{100, 200}, 0)
	sb.Add(SACKBlock{300, 400}, 0)
	h, ok := sb.NextHole(0, 500)
	if !ok || h != (SACKBlock{0, 100}) {
		t.Fatalf("first hole: %v %v", h, ok)
	}
	h, ok = sb.NextHole(100, 500)
	if !ok || h != (SACKBlock{200, 300}) {
		t.Fatalf("middle hole: %v %v", h, ok)
	}
	h, ok = sb.NextHole(300, 500)
	if !ok || h != (SACKBlock{400, 500}) {
		t.Fatalf("tail hole: %v %v", h, ok)
	}
	if _, ok := sb.NextHole(100, 200); ok {
		t.Fatal("hole reported inside a SACKed range")
	}
}

func TestScoreboardAdvanceUna(t *testing.T) {
	var sb scoreboard
	sb.Add(SACKBlock{100, 200}, 0)
	sb.Add(SACKBlock{300, 400}, 0)
	sb.AdvanceUna(150)
	if len(sb.ranges) != 2 || sb.ranges[0] != (SACKBlock{150, 200}) {
		t.Fatalf("advance: %v", sb.ranges)
	}
	sb.AdvanceUna(450)
	if !sb.Empty() {
		t.Fatalf("advance past all: %v", sb.ranges)
	}
}

func TestScoreboardCovers(t *testing.T) {
	var sb scoreboard
	sb.Add(SACKBlock{100, 200}, 0)
	if !sb.Covers(120, 180) || !sb.Covers(100, 200) {
		t.Fatal("covers inside range")
	}
	if sb.Covers(90, 110) || sb.Covers(150, 250) {
		t.Fatal("covers over boundary")
	}
}

// Property: the scoreboard stays sorted, non-overlapping, above una, and
// agrees with a reference set of SACKed bytes.
func TestQuickScoreboardInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb scoreboard
		ref := map[uint32]bool{}
		una := Seq(0)
		for op := 0; op < 150; op++ {
			if rng.Intn(4) != 0 {
				start := Seq(rng.Intn(900))
				ln := rng.Intn(80) + 1
				blk := SACKBlock{start, start.Add(ln)}
				sb.Add(blk, una)
				for s := start; s.LT(blk.End); s = s.Add(1) {
					if s.GEQ(una) {
						ref[uint32(s)] = true
					}
				}
			} else {
				una = una.Add(rng.Intn(60))
				sb.AdvanceUna(una)
				for k := range ref {
					if Seq(k).LT(una) {
						delete(ref, k)
					}
				}
			}
			// Invariants.
			total := 0
			var prev *SACKBlock
			for i := range sb.ranges {
				r := sb.ranges[i]
				if r.End.LEQ(r.Start) || r.Start.LT(una) {
					return false
				}
				if prev != nil && r.Start.LT(prev.End) {
					return false
				}
				total += r.End.Diff(r.Start)
				prev = &sb.ranges[i]
			}
			if total != len(ref) || total != sb.SackedBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTEstimatorConvergence(t *testing.T) {
	e := newRTTEstimator(0)
	if e.RTO() != InitialRTO {
		t.Fatalf("initial RTO = %v", e.RTO())
	}
	for i := 0; i < 50; i++ {
		e.Sample(100 * sim.Millisecond)
	}
	if e.SRTT() < 95*sim.Millisecond || e.SRTT() > 105*sim.Millisecond {
		t.Fatalf("srtt = %v after constant samples", e.SRTT())
	}
	// RTO floors at RTOMin.
	if e.RTO() != DefaultRTOMin {
		t.Fatalf("rto = %v, want floor %v", e.RTO(), DefaultRTOMin)
	}
}

func TestRTTEstimatorVariance(t *testing.T) {
	e := newRTTEstimator(0)
	for i := 0; i < 50; i++ {
		if i%2 == 0 {
			e.Sample(100 * sim.Millisecond)
		} else {
			e.Sample(900 * sim.Millisecond)
		}
	}
	// High variance must push RTO well above the mean.
	if e.RTO() < 900*sim.Millisecond {
		t.Fatalf("rto = %v with oscillating RTT", e.RTO())
	}
}

func TestRTTBackoff(t *testing.T) {
	e := newRTTEstimator(0)
	e.Sample(500 * sim.Millisecond)
	base := e.RTO()
	if e.Backoff(1) != 2*base || e.Backoff(2) != 4*base {
		t.Fatalf("backoff: %v %v base %v", e.Backoff(1), e.Backoff(2), base)
	}
	if e.Backoff(30) != DefaultRTOMax {
		t.Fatalf("backoff clamp: %v", e.Backoff(30))
	}
}

// TestDuplicateAckAllocs: with a segment withheld from an established
// pair, every later segment is answered at once by a duplicate ACK that
// carries the hole's far side as a SACK block — built in the ACK's own
// sackStore from ranges on the caller's stack, so the whole exchange
// (decode, reassembly queue, ACK, encode) allocates nothing. It used to
// cost two allocations per ACK: the range list and the block list.
func TestDuplicateAckAllocs(t *testing.T) {
	l := newTestLink(5, 10*sim.Millisecond, testCfg())
	var server *Conn
	l.b.Listen(80, func(c *Conn) { server = c })
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	l.eng.RunUntil(sim.Time(sim.Second))
	if client.State() != StateEstablished || server == nil || !server.peerSACK {
		t.Fatalf("pair not established with SACK: %v, server %v", client.State(), server)
	}
	// Segment 0 of the window is withheld; segments 1 and 2 arrive, over
	// and over (what a sender's retransmissions look like from here).
	src, dst := ip6.AddrFromID(0), ip6.AddrFromID(1)
	var pkts [2]*ip6.Packet
	for i := range pkts {
		seg := &Segment{
			SrcPort: client.localPort, DstPort: 80,
			SeqNum: server.rcvNxt.Add((i + 1) * 408), AckNum: server.sndNxt,
			Flags: FlagACK, Window: 1632,
			HasTS: true, TSVal: server.tsRecent + 1, TSEcr: server.tsRecent,
			Payload: make([]byte, 408),
		}
		pkts[i] = &ip6.Packet{
			Header:  ip6.Header{NextHeader: ip6.ProtoTCP, HopLimit: 64, Src: src, Dst: dst},
			Payload: seg.AppendEncode(nil, src, dst),
		}
	}
	acks := 0
	ack := &Segment{}
	l.b.PoolEncode = true // as under stack.New: this Output keeps nothing
	l.b.Output = func(pkt *ip6.Packet) {
		if err := DecodeSegmentInto(ack, pkt.Src, pkt.Dst, pkt.Payload); err != nil {
			t.Fatalf("ACK does not decode: %v", err)
		}
		acks++
	}
	rcvNxt := server.rcvNxt
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		l.b.Input(pkts[n%2])
		n++
	})
	if allocs != 0 {
		t.Errorf("a duplicate ACK with a SACK block costs %v allocations, want 0", allocs)
	}
	want := SACKBlock{Start: rcvNxt.Add(408), End: rcvNxt.Add(3 * 408)}
	if acks != n || ack.AckNum != rcvNxt || len(ack.SACKBlocks) != 1 || ack.SACKBlocks[0] != want {
		t.Fatalf("%d segments drew %d ACKs, the last acking %d with SACK %v; want one each, acking %d with %v",
			n, acks, ack.AckNum, ack.SACKBlocks, rcvNxt, want)
	}
}
