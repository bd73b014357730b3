// Package netem provides the network-condition manipulations of the
// application study: uniform injected packet loss at the border router
// (§9.4) and a diurnal external-interference profile (§9.5 / Fig. 10),
// and the wide-area backhaul behind a gateway (WANLink).
//
// WANLink.Send keeps only the two callbacks it is given, until one has
// fired, as a value in a ring rather than a closure per message. The
// rings may assume FIFO because the link cannot reorder: one serializer
// (transmit-done times never decrease) feeds one fixed delay (nor do
// arrival times), and the engine fires equal times in schedule order,
// so an event is always about the oldest message in its ring. A
// per-message delay would break that; TestWANLinkMatchesClosureModel
// checks the link against the closure form that assumes nothing.
package netem

import (
	"math/rand"

	"tcplp/internal/ip6"
	"tcplp/internal/phy"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

// UniformLoss returns a border-router drop filter removing packets with
// probability p, using a dedicated deterministic source.
func UniformLoss(p float64, seed int64) func(pkt *ip6.Packet) bool {
	rng := rand.New(rand.NewSource(seed))
	return func(pkt *ip6.Packet) bool {
		return rng.Float64() < p
	}
}

// DiurnalProfile returns an activity function for an interferer that
// follows office hours: quiet at night, ramping through the morning,
// peaking over the working day, and fading in the evening — the "regular
// human activity" of §9.5. Peak sets the maximum relative activity.
func DiurnalProfile(peak float64) func(t sim.Time) float64 {
	return func(t sim.Time) float64 {
		hour := float64(t%(sim.Time(24*sim.Hour))) / float64(sim.Hour)
		switch {
		case hour < 7:
			return 0.08 * peak
		case hour < 9:
			return (0.08 + (hour-7)/2*0.92) * peak // ramp up
		case hour < 17:
			return peak
		case hour < 21:
			return (1 - (hour-17)/4*0.85) * peak // ramp down
		default:
			return 0.15 * peak
		}
	}
}

// AddOfficeInterference places interference sources near the middle and
// far end of the network with the given diurnal profile, returning them
// (call Start on each).
func AddOfficeInterference(net *stack.Network, peak float64) []*phy.Interferer {
	bounds := func() (minX, maxX float64) {
		minX, maxX = net.Topo.Positions[0].X, net.Topo.Positions[0].X
		for _, p := range net.Topo.Positions {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
		}
		return
	}
	minX, maxX := bounds()
	spots := []phy.Point{
		{X: minX + (maxX-minX)*0.35, Y: 5},
		{X: minX + (maxX-minX)*0.75, Y: 2},
	}
	var out []*phy.Interferer
	profile := DiurnalProfile(peak)
	for i, p := range spots {
		in := phy.NewInterferer(net.Channel, 900+i, p)
		in.Activity = profile
		out = append(out, in)
	}
	return out
}
