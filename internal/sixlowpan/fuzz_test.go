package sixlowpan

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// FuzzDecompressHeader: arbitrary bytes never panic the IPHC decoder; a
// header it accepts was read from inside b; decoding into a dirty header
// and through the allocating wrapper give the same result; and
// decompress → compress → decompress is a fixed point.
func FuzzDecompressHeader(f *testing.F) {
	f.Add(CompressHeader(meshHeader(1, 2)))
	f.Add(CompressHeader(&ip6.Header{TrafficClass: 3, FlowLabel: 0xabcde, NextHeader: 17, HopLimit: 1,
		Src: ip6.Addr{0x20, 0x01, 0x0d, 0xb8, 15: 1}, Dst: ip6.AddrFromID(7)}))
	f.Add([]byte{0x60, 0x00})              // TF inline, truncated
	f.Add([]byte{0x78, 0x22, 6, 64, 0, 2}) // both addresses compressed, second one missing
	f.Fuzz(func(t *testing.T, b []byte) {
		var h ip6.Header
		n, err := DecompressHeaderInto(&h, b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		dirty := ip6.Header{TrafficClass: 0xff, FlowLabel: 0xfffff, PayloadLen: 0xffff, NextHeader: 0xff, HopLimit: 0xff}
		if n2, err := DecompressHeaderInto(&dirty, b); err != nil || n2 != n || dirty != h {
			t.Fatalf("dirty header decodes to %+v (%d, %v), clean to %+v (%d)", dirty, n2, err, h, n)
		}
		if hp, n2, err := DecompressHeader(b); err != nil || n2 != n || *hp != h {
			t.Fatalf("wrapper decodes to %+v (%d, %v), in-place to %+v (%d)", hp, n2, err, h, n)
		}
		c := AppendCompressHeader(nil, &h)
		if len(c) > MaxCompressedHeaderLen || !bytes.Equal(c, CompressHeader(&h)) {
			t.Fatalf("recompressed to %d bytes %x (wrapper %x)", len(c), c, CompressHeader(&h))
		}
		var again ip6.Header
		if n2, err := DecompressHeaderInto(&again, c); err != nil || n2 != len(c) || again != h {
			t.Fatalf("not a fixed point: %+v → %x → %+v (%d, %v)", h, c, again, n2, err)
		}
	})
}

// FuzzReassembler feeds one real datagram through the reassembler under
// a fuzzer-chosen delivery script — any order, duplicates, FRAGN before
// FRAG1, truncated tails, overlapping re-cuts of the same bytes, clock
// jumps past the timeout — interleaved with arbitrary frames from a
// second link source (tiny datagram_size, garbage dispatch, anything).
// Nothing may panic; whenever the datagram completes it is byte-exact;
// and after the script an exact cover always completes it.
func FuzzReassembler(f *testing.F) {
	f.Add(uint16(440), int64(1), []byte{0, 8, 16, 24, 32})                         // in order
	f.Add(uint16(440), int64(2), []byte{32, 24, 16, 8, 0, 0, 8})                   // reversed, duplicates
	f.Add(uint16(1200), int64(3), []byte{5, 13, 6, 14, 7, 0xc0, 0x08, 0, 1, 0x7a}) // truncated, re-cut, raw tiny FRAG1
	f.Add(uint16(90), int64(4), []byte{4, 0, 4, 0})                                // clock jumps
	f.Add(uint16(0), int64(5), []byte{7, 0xe0, 0x30, 0, 1, 200})                   // raw FRAGN, offset beyond size
	// Shapes TestCoverageMatchesPerByteModel leans on. FRAGN first, a
	// datagram that ends inside a bitmap word, truncated tails:
	f.Add(uint16(443), int64(6), []byte{8, 16, 24, 32, 5, 13, 0})
	// Long re-cuts that straddle bitmap words:
	f.Add(uint16(1499), int64(7), []byte{6, 14, 22, 30, 62, 126, 254, 0, 8, 16})
	// The other source opens a partial of the largest datagram_size, near
	// its end and then past it:
	f.Add(uint16(65), int64(8), []byte{0x37, 0xe7, 0xff, 0, 1, 0xfb, 0xaa, 0x77, 0xe7, 0xff, 0, 1, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, size uint16, seed int64, script []byte) {
		eng := sim.NewEngine(1)
		r := NewReassembler(eng)
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, int(size)%1500)
		rng.Read(payload)
		h := meshHeader(1, 2)
		chdr := CompressHeader(h)
		var fr Fragmenter
		frags := fr.Fragment(chdr, payload, phy.MaxMACPayload)
		src, other := phy.AddrFromID(1), phy.AddrFromID(2)

		completions := 0
		deliver := func(from phy.Addr, frame []byte) {
			pkt, err := r.Input(from, frame, 0)
			if err != nil || pkt == nil || from != src {
				return
			}
			completions++
			if !bytes.Equal(pkt.Payload, payload) || pkt.Src != h.Src || pkt.Dst != h.Dst ||
				pkt.NextHeader != h.NextHeader || int(pkt.PayloadLen) != len(payload) {
				t.Fatalf("datagram completed wrong: %d-byte payload, header %+v", len(pkt.Payload), pkt.Header)
			}
		}
		for i := 0; i < len(script); i++ {
			op, arg := script[i]&7, int(script[i]>>3)
			frag := frags[arg%len(frags)]
			switch op {
			default: // a real fragment: any order, any number of times
				deliver(src, frag)
			case 4: // the clock jumps, sometimes past the timeout
				eng.RunFor(sim.Duration(arg) * sim.Second / 2)
			case 5: // truncated tail (of a fragment: the bytes that survive are the right ones)
				if len(frags) > 1 {
					deliver(src, frag[:len(frag)-len(frag)/(arg%3+2)])
				}
			case 6: // the same bytes cut differently: a FRAGN overlapping its neighbours
				if len(frags) > 1 && len(payload) >= 16 {
					fi, _ := ParseFragment(frags[0])
					from := (arg * 8) % (len(payload) - 8) &^ 7
					to := from + 8 + rng.Intn(len(payload)-from-7)
					recut := binary.BigEndian.AppendUint16(nil, uint16(dispFRAGN)<<8|fi.DatagramSize)
					recut = binary.BigEndian.AppendUint16(recut, fi.Tag)
					recut = append(recut, byte((40+from)/8))
					deliver(src, append(recut, payload[from:to]...))
				}
			case 7: // arbitrary bytes from the other link source
				n := arg
				if n > len(script)-i-1 {
					n = len(script) - i - 1
				}
				deliver(other, script[i+1:i+1+n])
				i += n
			}
		}
		before := completions
		for _, frag := range frags {
			deliver(src, frag)
		}
		if completions == before {
			t.Fatalf("an exact cover of %d fragments did not complete the datagram", len(frags))
		}
	})
}
