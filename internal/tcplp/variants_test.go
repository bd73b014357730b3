package tcplp

import (
	"math/rand"
	"testing"

	"tcplp/internal/ip6"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// Every congestion-control variant must complete a lossy transfer
// through the full connection machinery (fast retransmit, RTO, SACK).
func TestTransferAllVariants(t *testing.T) {
	for i, v := range cc.Variants() {
		t.Run(string(v), func(t *testing.T) {
			cfg := testCfg()
			cfg.Variant = v
			cfg.SendBufSize = 8 * 408
			cfg.RecvBufSize = 8 * 408
			l := newTestLink(int64(60+i), 20*sim.Millisecond, cfg)
			rng := rand.New(rand.NewSource(int64(61 + i)))
			l.Drop = func(pkt *ip6.Packet) bool { return rng.Float64() < 0.08 }
			_, client := l.transfer(t, 30_000, 10*sim.Minute)
			if client.Variant() != v {
				t.Fatalf("connection runs %v, want %v", client.Variant(), v)
			}
			if client.Stats.Retransmits == 0 {
				t.Fatal("no retransmits despite 8% loss")
			}
		})
	}
}

// An unknown variant is a configuration programming error and must be
// rejected at stack setup, not discovered mid-simulation.
func TestUnknownVariantPanics(t *testing.T) {
	cfg := testCfg()
	cfg.Variant = "tahoe"
	defer func() {
		if recover() == nil {
			t.Fatal("NewStack with unknown variant did not panic")
		}
	}()
	newTestLink(70, 10*sim.Millisecond, cfg)
}

// A listener's config is checked on the packet path,
// so a bad variant there must refuse the connection (RST), not panic.
func TestListenerBadVariantRefusesConnection(t *testing.T) {
	l := newTestLink(71, 10*sim.Millisecond, testCfg())
	lst := l.b.Listen(80, func(c *Conn) { t.Fatal("accepted a connection with a bad variant") })
	cfg := testCfg()
	cfg.Variant = "tahoe"
	lst.Config = &cfg
	var closedErr error
	client := l.a.Connect(ip6.AddrFromID(1), 80)
	client.OnClosed = func(err error) { closedErr = err }
	l.eng.RunUntil(sim.Time(5 * sim.Second))
	if closedErr != ErrConnRefused {
		t.Fatalf("close error = %v, want %v (state %v)", closedErr, ErrConnRefused, client.State())
	}
}
