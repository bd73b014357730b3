package sixlowpan

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// TestFrag1TinyDatagramSize: a FRAG1 whose datagram_size cannot hold
// even the IPv6 header it carries is rejected before a payload buffer of
// negative length is asked for (it used to panic in makeslice).
func TestFrag1TinyDatagramSize(t *testing.T) {
	chdr := CompressHeader(meshHeader(1, 2))
	for _, tc := range []struct {
		size    uint16
		wantErr error
	}{
		{0, ErrBadOffset},
		{8, ErrBadOffset},
		{39, ErrBadOffset},
		{40, nil}, // header only: completes at once with an empty payload
	} {
		r := NewReassembler(sim.NewEngine(1))
		frame := binary.BigEndian.AppendUint16(nil, uint16(dispFRAG1)<<8|tc.size)
		frame = binary.BigEndian.AppendUint16(frame, 1) // tag
		frame = append(frame, chdr...)
		pkt, err := r.Input(phy.AddrFromID(1), frame, 0)
		if !errors.Is(err, tc.wantErr) {
			t.Fatalf("datagram_size %d: err = %v, want %v", tc.size, err, tc.wantErr)
		}
		if tc.wantErr != nil {
			if pkt != nil || r.Pending() != 0 {
				t.Fatalf("datagram_size %d: rejected frame left state behind (pkt %v, pending %d)", tc.size, pkt, r.Pending())
			}
			continue
		}
		if pkt == nil || len(pkt.Payload) != 0 || pkt.Dst != meshHeader(1, 2).Dst {
			t.Fatalf("datagram_size %d: pkt = %+v, want a complete empty datagram", tc.size, pkt)
		}
	}
}

type eventLog []obs.Event

func (l *eventLog) Record(e obs.Event) { *l = append(*l, e) }

// TestReassemblyExpiryWatermark drives the reassembler through partial
// datagrams, refreshes and idle gaps against the rule the full sweep
// implemented: a partial is gone — and TimedOut and the FragTimeout
// event have fired — by the first Input or Pending at or after its
// deadline, and not before.
func TestReassemblyExpiryWatermark(t *testing.T) {
	eng := sim.NewEngine(1)
	r := NewReassembler(eng)
	var log eventLog
	r.Trace = obs.NewTrace()
	r.Trace.AddSink(&log)
	src := phy.AddrFromID(1)
	var f Fragmenter
	datagram := func() (frag1, fragN []byte, tag uint16) {
		frags := f.Fragment(CompressHeader(meshHeader(1, 2)), make([]byte, 300), phy.MaxMACPayload)
		fi, err := ParseFragment(frags[0])
		if err != nil || len(frags) < 3 {
			t.Fatalf("want ≥3 fragments: %d, %v", len(frags), err)
		}
		return frags[0], frags[1], fi.Tag
	}

	const life = DefaultReassemblyTimeout
	timeout := life
	deadlines := map[uint16]sim.Time{} // the model: swept in full before every call
	var wantTimedOut uint64
	sweep := func() {
		for tag, d := range deadlines {
			if eng.Now() >= d {
				delete(deadlines, tag)
				wantTimedOut++
			}
		}
	}
	check := func(when sim.Duration) {
		t.Helper()
		if r.TimedOut != wantTimedOut || uint64(len(log)) != wantTimedOut {
			t.Fatalf("t=%v: TimedOut %d, %d FragTimeout events, want %d", when, r.TimedOut, len(log), wantTimedOut)
		}
		if len(r.inflight) != len(deadlines) {
			t.Fatalf("t=%v: %d partials, want %d", when, len(r.inflight), len(deadlines))
		}
		for tag, d := range deadlines {
			if p := r.inflight[partialKey{src, tag}]; p == nil || p.deadline != d {
				t.Fatalf("t=%v: partial %d = %+v, want deadline %v", when, tag, p, d)
			}
		}
		for _, e := range log {
			if e.Kind != obs.FragTimeout || e.Cause != obs.CauseReassemblyTimeout {
				t.Fatalf("t=%v: unexpected event %+v", when, e)
			}
		}
	}
	// input feeds one fragment of datagram tag (creating or refreshing
	// its partial); pending only asks.
	input := func(when sim.Duration, frame []byte, tag uint16) {
		t.Helper()
		eng.RunUntil(sim.Time(when))
		sweep()
		deadlines[tag] = eng.Now().Add(timeout)
		if pkt, err := r.Input(src, frame, 0); err != nil || pkt != nil {
			t.Fatalf("t=%v: Input = %v, %v", when, pkt, err)
		}
		check(when)
	}
	pending := func(when sim.Duration) {
		t.Helper()
		eng.RunUntil(sim.Time(when))
		sweep()
		if got := r.Pending(); got != len(deadlines) {
			t.Fatalf("t=%v: Pending = %d, want %d", when, got, len(deadlines))
		}
		check(when)
	}

	a1, aN, aTag := datagram()
	b1, _, bTag := datagram()
	c1, _, cTag := datagram()
	_, dN, dTag := datagram()
	input(0, a1, aTag)
	input(1*sim.Second, b1, bTag)
	input(4*sim.Second, aN, aTag)      // refresh moves A's deadline later: the bound stays a bound
	pending(life)                      // A's original deadline: nothing expires
	pending(life + sim.Second - 1)     // B's last instant
	pending(life + sim.Second)         // B expires exactly now, by Pending
	input(life+2*sim.Second, c1, cTag) // insert between two deadlines
	input(life+4*sim.Second, dN, dTag) // A expires exactly now, by an unrelated Input (FRAGN before FRAG1)
	pending(3 * life)                  // long idle gap: C and D both go in one sweep
	input(3*life+sim.Second, a1, aTag) // the emptied reassembler takes partials again
	pending(4*life + sim.Second - 1)   // … keeps them to the last instant
	pending(4*life + sim.Second)       // … and drops them on time
	input(4*life+2*sim.Second, a1, aTag)
	timeout = sim.Second // a shorter timeout: the new partial's deadline undercuts the watermark
	r.timeout = timeout
	input(4*life+3*sim.Second, b1, bTag)
	pending(4*life + 4*sim.Second - 1)
	pending(4*life + 4*sim.Second) // B, created second, expires first
	pending(5*life + 2*sim.Second) // A on its original, longer deadline
	if wantTimedOut != 7 {
		t.Fatalf("script expired %d partials, want 7", wantTimedOut)
	}
}

// TestFragTimeoutOrder: partials that expire in one sweep emit their
// FragTimeout events in tag order, whatever order they arrived in and
// however the map iterates. Thirty fresh reassemblers each drop six
// incomplete datagrams at once.
func TestFragTimeoutOrder(t *testing.T) {
	chdr := CompressHeader(meshHeader(1, 2))
	for run := 0; run < 30; run++ {
		eng := sim.NewEngine(1)
		r := NewReassembler(eng)
		var log eventLog
		r.Trace = obs.NewTrace()
		r.Trace.AddSink(&log)
		for _, tag := range []uint16{4, 1, 6, 2, 5, 3} {
			frame := binary.BigEndian.AppendUint16(nil, uint16(dispFRAG1)<<8|300)
			frame = binary.BigEndian.AppendUint16(frame, tag)
			frame = append(frame, chdr...)
			if pkt, err := r.Input(phy.AddrFromID(1), frame, 0); pkt != nil || err != nil {
				t.Fatalf("FRAG1 tag %d: Input = %v, %v", tag, pkt, err)
			}
		}
		eng.RunFor(DefaultReassemblyTimeout)
		if r.Pending() != 0 {
			t.Fatalf("run %d: partials left after the timeout", run)
		}
		var tags []int64
		for _, e := range log {
			tags = append(tags, e.A)
		}
		if fmt.Sprint(tags) != "[1 2 3 4 5 6]" {
			t.Fatalf("run %d: FragTimeout tags %v, want [1 2 3 4 5 6]", run, tags)
		}
	}
}

// TestReassemblerArena pins the ownership rule of Input's result: one
// packet and one payload arena per reassembler, reused by the next
// datagram, and nothing allocated once they exist.
func TestReassemblerArena(t *testing.T) {
	r := NewReassembler(sim.NewEngine(1))
	var f Fragmenter
	src := phy.AddrFromID(1)
	chdr := CompressHeader(meshHeader(1, 2))
	payload := bytes.Repeat([]byte{0x11}, 440)
	var frames [][]byte
	round := func() (pkt *ip6.Packet) {
		frames = f.AppendFragments(frames[:0], chdr, payload, phy.MaxMACPayload)
		for _, fr := range frames {
			p, err := r.Input(src, fr, 0)
			if err != nil {
				t.Fatal(err)
			}
			if p != nil {
				pkt = p
			}
			f.Release(fr)
		}
		if pkt == nil || !bytes.Equal(pkt.Payload, payload) {
			t.Fatal("datagram did not reassemble")
		}
		return pkt
	}
	first := round()
	arena := &first.Payload[0]
	payload = bytes.Repeat([]byte{0x22}, 440)
	second := round()
	if second != first || &second.Payload[0] != arena {
		t.Fatal("second datagram did not reuse the reassembler's packet and arena")
	}
	// An unfragmented datagram aliases the frame it came in.
	small := append(append([]byte(nil), chdr...), 1, 2, 3)
	p, err := r.Input(src, small, 0)
	if err != nil || p != first || &p.Payload[0] != &small[len(chdr)] {
		t.Fatalf("unfragmented datagram: %v, %v", p, err)
	}
	if n := testing.AllocsPerRun(100, func() { round() }); n != 0 {
		t.Fatalf("fragment + reassemble costs %.0f allocations once warm, want 0", n)
	}
}

// modelPartial and modelInput are the reassembler's coverage rule as it
// was written before the bitmap: one []bool entry, one test, one store
// and one byte copy per payload byte. They survive as the oracle for
// TestCoverageMatchesPerByteModel (no expiry: its clock never moves).
type modelPartial struct {
	header     ip6.Header
	haveHeader bool
	size       int
	payload    []byte
	have       []bool
	covered    int
}

type modelReassembler map[partialKey]*modelPartial

// modelInput returns the completed datagram's header and payload, or a
// nil header while fragments are missing.
func (m modelReassembler) modelInput(src phy.Addr, b []byte) (*ip6.Header, []byte, error) {
	var off int
	var data []byte
	var hdr *ip6.Header
	fi, err := ParseFragment(b)
	if err != nil {
		return nil, nil, err
	}
	switch Classify(b) {
	case KindFrag1:
		if fi.DatagramSize < ip6.HeaderLen {
			return nil, nil, ErrBadOffset
		}
		var h ip6.Header
		n, err := DecompressHeaderInto(&h, b[fi.HeaderLen:])
		if err != nil {
			return nil, nil, err
		}
		hdr, data = &h, b[fi.HeaderLen+n:]
	case KindFragN:
		if fi.Offset < 40 || fi.Offset > int(fi.DatagramSize) {
			return nil, nil, ErrBadOffset
		}
		off, data = fi.Offset-40, b[fi.HeaderLen:]
	}
	k := partialKey{src: src, tag: fi.Tag}
	p := m[k]
	if p == nil || p.size != int(fi.DatagramSize) {
		n := int(fi.DatagramSize) - 40
		p = &modelPartial{size: int(fi.DatagramSize), payload: make([]byte, n), have: make([]bool, n)}
		m[k] = p
	}
	if hdr != nil {
		p.header, p.haveHeader = *hdr, true
	}
	if off+len(data) > len(p.payload) {
		return nil, nil, ErrBadOffset
	}
	for i, c := range data {
		if !p.have[off+i] {
			p.have[off+i] = true
			p.covered++
		}
		p.payload[off+i] = c
	}
	if p.covered < len(p.payload) || !p.haveHeader {
		return nil, nil, nil
	}
	delete(m, k)
	return &p.header, p.payload, nil
}

// TestCoverageMatchesPerByteModel: random fragment sequences — overlapping,
// duplicated, lengths that are not a multiple of 8 (so ranges start and
// end inside bitmap words), offsets below the header and past the end,
// FRAGN before FRAG1, two sources and two tags interleaved, a tag reused
// at another datagram_size — give the same error, the same completion
// and the same payload bytes from the word-at-a-time reassembler as from
// the per-byte model, frame by frame.
func TestCoverageMatchesPerByteModel(t *testing.T) {
	sizes := []uint16{40, 41, 47, 48, 103, 104, 105, 168, 169, 511, 1280, MaxDatagramSize}
	chdr := CompressHeader(meshHeader(1, 2))
	completions := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewReassembler(sim.NewEngine(1))
		model := modelReassembler{}
		size := sizes[rng.Intn(len(sizes))]
		span := int(size) - 40
		frame := func(kind, unit, n int) []byte {
			sz := size
			if rng.Intn(40) == 0 {
				sz = sizes[rng.Intn(len(sizes))] // same tag, another size: the partial starts over
			}
			disp := [...]uint16{dispFRAG1, dispFRAGN}[kind]
			b := binary.BigEndian.AppendUint16(nil, disp<<8|sz)
			b = binary.BigEndian.AppendUint16(b, uint16(1+rng.Intn(2))) // tag
			if kind == 0 {
				b = append(b, chdr...)
			} else {
				b = append(b, byte(unit))
			}
			data := make([]byte, n)
			rng.Read(data)
			return append(b, data...)
		}
		for step := 0; step < 400; step++ {
			var b []byte
			switch c := rng.Intn(10); {
			case c == 0:
				b = frame(0, 0, rng.Intn(min(span, 100)+2)) // FRAG1, sometimes one byte too long
			case c < 8: // FRAGN somewhere inside, any length
				b = frame(1, 5+rng.Intn(span/8+1), rng.Intn(110))
			case c == 8: // FRAGN from below the header to past the end
				b = frame(1, rng.Intn(span/8+8), rng.Intn(110))
			default: // a long stretch: many whole words at once
				b = frame(1, 5+rng.Intn(span/8+1), rng.Intn(span+2))
			}
			src := phy.AddrFromID(1 + rng.Intn(2))
			wantHdr, wantPayload, wantErr := model.modelInput(src, b)
			pkt, err := r.Input(src, b, 0)
			if err != wantErr {
				t.Fatalf("seed %d step %d (size %d, frame % x…): err = %v, model %v", seed, step, size, b[:5], err, wantErr)
			}
			if (pkt != nil) != (wantHdr != nil) {
				t.Fatalf("seed %d step %d (size %d): completed = %v, model %v", seed, step, size, pkt != nil, wantHdr != nil)
			}
			if pkt != nil {
				completions++
				if pkt.Header.Src != wantHdr.Src || pkt.Header.Dst != wantHdr.Dst || pkt.NextHeader != wantHdr.NextHeader ||
					int(pkt.PayloadLen) != len(wantPayload) || !bytes.Equal(pkt.Payload, wantPayload) {
					t.Fatalf("seed %d step %d (size %d): completed datagram differs from the model's", seed, step, size)
				}
			}
			if r.Pending() != len(model) {
				t.Fatalf("seed %d step %d: %d partials pending, model %d", seed, step, r.Pending(), len(model))
			}
		}
	}
	if completions < 100 {
		t.Fatalf("only %d datagrams completed: the generator no longer exercises completion", completions)
	}
}

// BenchmarkReassemble5: the paper's five-frame segment (§6.1) through the
// reassembler — five fragments in, one packet out.
func BenchmarkReassemble5(b *testing.B) {
	chdr := CompressHeader(meshHeader(1, 2))
	payload := make([]byte, MaxPayloadForFrames(len(chdr), 5, phy.MaxMACPayload))
	var f Fragmenter
	frags := f.Fragment(chdr, payload, phy.MaxMACPayload)
	if len(frags) != 5 {
		b.Fatalf("%d fragments, want 5", len(frags))
	}
	r := NewReassembler(sim.NewEngine(1))
	src := phy.AddrFromID(1)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		var pkt *ip6.Packet
		for _, frag := range frags {
			pkt, _ = r.Input(src, frag, 0)
		}
		if pkt == nil || len(pkt.Payload) != len(payload) {
			b.Fatal("five fragments did not complete the datagram")
		}
	}
}
