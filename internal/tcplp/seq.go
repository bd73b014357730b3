// Package tcplp is the paper's primary contribution rebuilt in Go: a
// full-scale TCP in the FreeBSD lineage, sized for low-power wireless
// networks. It implements the RFC 793 state machine, New Reno congestion
// control (RFC 5681/6582), selective acknowledgments (RFC 2018),
// timestamps and RTTM (RFC 7323), the RFC 6298 retransmission timer,
// delayed ACKs, zero-window probes, ECN (RFC 3168), header prediction,
// and challenge ACKs — the Table 1 feature set — over the two memory
// structures §4.3 chooses: every Conn owns one flat circular send buffer
// (CopySendBuffer, §4.3.1) and one in-place reassembly queue (RecvBuffer,
// §4.3.2, Fig. 1b), both by value. The designs they were chosen over — a
// zero-copy linked-list send buffer and an mbuf-chain reassembly queue —
// exist only in ablation_test.go, for the benches that compare them.
//
// The implementation is event-driven against a sim.Engine, exactly as
// TCPlp was restructured around tickless embedded timers instead of
// FreeBSD callouts (§4.1).
package tcplp

// Seq is a TCP sequence number; all comparisons are modulo 2^32.
type Seq uint32

// LT reports s < t in sequence space.
func (s Seq) LT(t Seq) bool { return int32(s-t) < 0 }

// LEQ reports s ≤ t in sequence space.
func (s Seq) LEQ(t Seq) bool { return int32(s-t) <= 0 }

// GT reports s > t in sequence space.
func (s Seq) GT(t Seq) bool { return int32(s-t) > 0 }

// GEQ reports s ≥ t in sequence space.
func (s Seq) GEQ(t Seq) bool { return int32(s-t) >= 0 }

// Add advances s by n.
func (s Seq) Add(n int) Seq { return s + Seq(uint32(n)) }

// Diff returns s − t as a signed count of bytes.
func (s Seq) Diff(t Seq) int { return int(int32(s - t)) }

func maxSeq(a, b Seq) Seq {
	if a.GT(b) {
		return a
	}
	return b
}

func minSeq(a, b Seq) Seq {
	if a.LT(b) {
		return a
	}
	return b
}
