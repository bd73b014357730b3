package uip

import (
	"testing"
)

// Profiles lists every baseline of Table 7.
func Profiles() []Profile { return []Profile{UIP, BLIP, Hewage, ArchRock} }

func TestProfilesMatchTable1(t *testing.T) {
	for _, p := range Profiles() {
		cfg := p.Config()
		if cfg.UseSACK || cfg.UseTimestamps || cfg.UseDelayedAcks {
			t.Fatalf("%v: simplified stack has full-scale features enabled", p)
		}
		if cfg.SendBufSize != cfg.MSS || cfg.RecvBufSize != cfg.MSS {
			t.Fatalf("%v: buffers must hold exactly one segment (got %d/%d, MSS %d)",
				p, cfg.SendBufSize, cfg.RecvBufSize, cfg.MSS)
		}
		if cfg.InitialCwndSegs != 1 {
			t.Fatalf("%v: initial window = %d segs", p, cfg.InitialCwndSegs)
		}
	}
}

func TestSegFrames(t *testing.T) {
	cases := map[Profile]int{UIP: 1, BLIP: 1, Hewage: 4, ArchRock: 9}
	for p, frames := range cases {
		if p.SegFrames() != frames {
			t.Fatalf("%v frames = %d, want %d", p, p.SegFrames(), frames)
		}
	}
	// Larger segment profiles must produce larger MSS.
	if UIP.Config().MSS >= Hewage.Config().MSS {
		t.Fatal("MSS ordering broken")
	}
	if Hewage.Config().MSS >= ArchRock.Config().MSS {
		t.Fatal("MSS ordering broken")
	}
}

func TestNames(t *testing.T) {
	for _, p := range Profiles() {
		if p.String() == "?" {
			t.Fatalf("profile %d has no name", p)
		}
	}
}
