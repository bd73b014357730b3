// Package uip reproduces the simplified embedded TCP stacks the paper
// compares against (Table 1 and Table 7): uIP in Contiki, BLIP in TinyOS,
// and the Arch Rock stack. Each is expressed as a configuration profile
// of the full tcplp implementation with features stripped away — which is
// faithful to what these stacks are: wire-compatible TCPs without sliding
// windows, congestion control, SACK, timestamps, or delayed ACKs.
//
// The defining limitation is a single outstanding segment: with a
// one-segment send buffer and a one-segment advertised window, the
// connection degenerates to stop-and-wait, so goodput collapses to
// roughly MSS/RTT — and interacts catastrophically with a delayed-ACK
// peer, as real uIP deployments observed.
package uip

import (
	"fmt"
	"strings"

	"tcplp/internal/sim"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// Profile identifies a simplified-stack configuration from Table 7.
type Profile int

// Profiles.
const (
	// UIP is Contiki's uIP: MSS of one frame, one outstanding segment,
	// no RTT estimation beyond a coarse fixed timer, no options.
	UIP Profile = iota
	// BLIP is TinyOS's BLIP stack: one frame, one segment, no
	// congestion control, no RTT estimation, no MSS option.
	BLIP
	// Hewage is the uIP variant of Hewage et al. [50]: MSS of four
	// frames, still one outstanding segment.
	Hewage
	// ArchRock is the Arch Rock stack [53]: ≈1024-byte segments, one
	// outstanding segment.
	ArchRock
)

func (p Profile) String() string {
	switch p {
	case UIP:
		return "uIP"
	case BLIP:
		return "BLIP"
	case Hewage:
		return "uIP[50]"
	case ArchRock:
		return "ArchRock"
	}
	return "?"
}

// SegFrames returns the profile's segment size in 802.15.4 frames.
func (p Profile) SegFrames() int {
	switch p {
	case Hewage:
		return 4
	case ArchRock:
		return 9 // ≈1024 bytes
	default:
		return 1
	}
}

// Config builds the tcplp configuration for the profile. The stripped
// feature set matches Table 1's rows for each stack.
func (p Profile) Config() tcplp.Config {
	info := stack.SegmentSizing(p.SegFrames(), false)
	cfg := tcplp.DefaultConfig()
	cfg.MSS = info.MSS
	cfg.SendBufSize = info.MSS // one outstanding segment
	cfg.RecvBufSize = info.MSS
	cfg.UseSACK = false
	cfg.UseTimestamps = false
	cfg.UseDelayedAcks = false
	cfg.UseECN = false
	cfg.InitialCwndSegs = 1
	// Coarse embedded retransmission timers: uIP ticks at 0.5 s with an
	// initial RTO of several ticks.
	cfg.RTOMin = 1500 * sim.Millisecond
	cfg.MaxRetransmits = 8
	return cfg
}

// ParseProfile resolves a profile name used in scenario specs (uip,
// blip, uip50, archrock), accepting common aliases.
func ParseProfile(s string) (Profile, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "uip":
		return UIP, nil
	case "blip":
		return BLIP, nil
	case "uip50", "uip-50", "uip[50]", "hewage":
		return Hewage, nil
	case "archrock", "arch-rock":
		return ArchRock, nil
	}
	return 0, fmt.Errorf("uip: unknown stack profile %q (have uip, blip, uip50, archrock)", s)
}
