//go:build invariants

package tcplp

import (
	"math/rand"
	"strings"
	"testing"

	"tcplp/internal/bitmap"
	"tcplp/internal/ip6"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// TestInvariantsCatchCorruption: the checks have teeth. An established
// pair mid-transfer satisfies every invariant; each corruption below
// breaks exactly the one it names. Without this, a check that could
// never fire would pass every golden run just as well.
func TestInvariantsCatchCorruption(t *testing.T) {
	established := func() (*testLink, *Conn, *Conn) {
		l := newTestLink(3, 20*sim.Millisecond, testCfg())
		var server *Conn
		l.b.Listen(80, func(c *Conn) { server = c })
		client := l.a.Connect(ip6.AddrFromID(1), 80)
		client.OnEstablished = func() { client.Write(make([]byte, 1000)) }
		// Stop mid-flight: data outstanding, rexmt armed, nothing read.
		l.eng.RunUntil(sim.Time(70 * sim.Millisecond))
		if client.State() != StateEstablished || server == nil || client.sndMax.Diff(client.sndUna) == 0 {
			t.Fatalf("pair not mid-transfer: %v, server %v", client.State(), server)
		}
		return l, client, server
	}
	if _, c, s := established(); c.brokenInvariant() != "" || s.brokenInvariant() != "" {
		t.Fatalf("healthy pair reported broken: %q / %q", c.brokenInvariant(), s.brokenInvariant())
	}
	for _, tc := range []struct {
		want    string
		corrupt func(client, server *Conn)
	}{
		{"una <= nxt <= max", func(c, _ *Conn) { c.sndNxt = c.sndMax.Add(1) }},
		{"una <= nxt <= max", func(c, _ *Conn) { c.sndNxt = c.sndUna.Add(-1) }},
		{"sndBuf.Len()", func(c, _ *Conn) { c.sndBuf.Discard(1) }},
		{"cwnd", func(c, _ *Conn) { c.cong.OnRTO(0, 1, 0) }},
		{"outside [una,max)", func(c, _ *Conn) {
			c.sb.ranges = []SACKBlock{{Start: c.sndMax, End: c.sndMax.Add(10)}}
		}},
		{"outside [una,max)", func(c, _ *Conn) {
			c.sb.ranges = []SACKBlock{{Start: c.sndUna.Add(-5), End: c.sndUna.Add(5)}}
		}},
		{"overlap or are out of order", func(c, _ *Conn) {
			c.sb.ranges = []SACKBlock{{Start: c.sndUna.Add(20), End: c.sndUna.Add(30)}, {Start: c.sndUna.Add(5), End: c.sndUna.Add(10)}}
		}},
		{"OutOfOrder()", func(_, s *Conn) {
			bitmap.SetRange(s.rcvQ.bits, s.rcvQ.idx(s.rcvQ.readable+9), s.rcvQ.idx(s.rcvQ.readable+9)+1)
		}},
		{"not marked present", func(_, s *Conn) { bitmap.ClearRange(s.rcvQ.bits, s.rcvQ.start, s.rcvQ.start+1) }},
		{"spare bitmap bit", func(_, s *Conn) { s.rcvQ.bits[len(s.rcvQ.bits)-1] |= 1 << 63 }},
		{"window edge", func(_, s *Conn) { s.lastWndAdv += 100 }},
		{"timer armed on a CLOSED connection", func(c, _ *Conn) { c.state = StateClosed }},
	} {
		_, c, s := established()
		tc.corrupt(c, s)
		if got := c.brokenInvariant() + s.brokenInvariant(); !strings.Contains(got, tc.want) {
			t.Errorf("corruption meant to break %q reported %q", tc.want, got)
		}
	}

	// Arming one kind of the retx slot over another still pending panics
	// at once: mid-transfer the client's slot holds its rexmt.
	func() {
		_, c, _ := established()
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "when arming the persist timer") || !strings.Contains(r, "the rexmt timer is pending") {
				t.Errorf("arming persist over a pending rexmt did not panic naming both: %v", r)
			}
		}()
		c.schedulePersist()
	}()

	// And checkInvariants turns a broken one into a panic naming the step.
	_, c, _ := established()
	c.sndNxt = c.sndMax.Add(1)
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "after the test step") || !strings.Contains(r, "una <= nxt <= max") {
			t.Fatalf("checkInvariants did not panic with the step and the invariant: %v", r)
		}
	}()
	c.checkInvariants("the test step")
}

// TestInvariantsUnderHostileLink drives every congestion-control variant
// through links no scripted test writes out — loss, reordering jitter
// and duplication, with SACK, timestamps and the window size varied by
// seed — and through a reader that takes a few bytes at random
// intervals, so windows close, reopen by a byte and close again. Every
// input, output pass and timer runs checkInvariants; the transfer must
// also complete byte-exact (transfer checks) or, for the slow reader,
// deliver every byte or report an error. A reader of this shape is what
// found the rexmt/persist bug that
// TestZeroWindowWithFinQueuedNoSpuriousRTO now pins deterministically.
func TestInvariantsUnderHostileLink(t *testing.T) {
	duplicating := func(rng *rand.Rand, out func(*ip6.Packet)) func(*ip6.Packet) {
		return func(pkt *ip6.Packet) {
			out(pkt)
			if rng.Float64() < 0.1 {
				dup := *pkt
				dup.Payload = append([]byte(nil), pkt.Payload...)
				out(&dup)
			}
		}
	}
	for _, v := range cc.Variants() {
		for seed := int64(1); seed <= 60; seed++ {
			cfg := testCfg()
			cfg.Variant = v
			if seed%3 == 0 {
				cfg.SendBufSize, cfg.RecvBufSize = 8*408, 8*408
			}
			cfg.UseSACK = seed%5 != 0
			cfg.UseTimestamps = seed%7 != 0
			rng := rand.New(rand.NewSource(seed))
			hostile := func() *testLink {
				l := newTestLink(seed, 20*sim.Millisecond, cfg)
				l.Drop = func(*ip6.Packet) bool { return rng.Float64() < 0.1 }
				l.Jitter = func() sim.Duration { return sim.Duration(rng.Intn(80)) * sim.Millisecond }
				l.a.Output = duplicating(rng, l.a.Output)
				l.b.Output = duplicating(rng, l.b.Output)
				return l
			}
			hostile().transfer(t, 30_000, 30*sim.Minute)

			l := hostile()
			var server *Conn
			l.b.Listen(80, func(c *Conn) { server = c })
			const total = 20_000
			got, buf := 0, make([]byte, 700)
			var read func()
			read = func() {
				if server != nil {
					n := 1 // often a single byte: room for a probe, none for a window update
					if rng.Intn(3) > 0 {
						n += rng.Intn(len(buf))
					}
					got += server.Read(buf[:n])
					if server.EOF() {
						server.Close()
						return
					}
				}
				l.eng.Schedule(sim.Duration(50+rng.Intn(3000))*sim.Millisecond, read)
			}
			l.eng.Schedule(sim.Second, read)
			client := l.a.Connect(ip6.AddrFromID(1), 80)
			sent := 0
			pump := func() {
				for sent < total {
					w, err := client.Write(make([]byte, min(total-sent, 1+rng.Intn(900))))
					if err != nil || w == 0 {
						return
					}
					sent += w
				}
				client.Close()
			}
			client.OnEstablished = pump
			client.OnWritable = pump
			l.eng.RunUntil(sim.Time(3 * sim.Hour))
			if got != total && client.closeErr == nil {
				t.Fatalf("%s seed %d, slow reader: %d of %d bytes and no error (client %v, server %v)",
					v, seed, got, total, client.State(), stateOf(server))
			}
		}
	}
}
