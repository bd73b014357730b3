package phy

import (
	"tcplp/internal/sim"
)

// An office interferer's burst process (§9.5).
const (
	officeBurst = 3 * sim.Millisecond  // mean burst duration
	officeGap   = 60 * sim.Millisecond // mean idle gap between bursts at activity 1.0
)

// Interferer is an external noise source (WiFi, microwave ovens, "regular
// human activity in an office", §9.5). It occupies the channel in bursts:
// burst lengths are exponentially distributed around a 3 ms mean, and
// gaps between bursts are exponential around a 60 ms mean divided by the
// current activity. Activity(t) lets callers shape a diurnal profile for
// the Fig. 10 experiment.
type Interferer struct {
	eng   *sim.Engine
	radio *Radio

	// burstMean and meanGap are officeBurst and officeGap; tests change
	// them.
	burstMean, meanGap sim.Duration
	// Activity returns the relative activity level at time t; 0 disables
	// interference, 1 is nominal. Nil means constant 1.
	Activity func(t sim.Time) float64

	running   bool
	burstLeft int // noise frames still to emit in the current burst
}

// noiseFrame is what an interferer puts on air: never written, never
// decoded, and copied by the channel at beginTx, so every frame of every
// interferer shares it.
var noiseFrame [MaxPHYPayload]byte

// NewInterferer creates a noise source at pos. Its transmissions are
// sensed within the channel's propagation model but never decoded.
func NewInterferer(c *Channel, id int, pos Point) *Interferer {
	r := c.AddRadio(id, pos)
	r.NoiseOnly = true
	in := &Interferer{
		eng:       c.eng,
		radio:     r,
		burstMean: officeBurst,
		meanGap:   officeGap,
	}
	r.OnTxDone = in.emit
	return in
}

// Start begins the burst process.
func (in *Interferer) Start() {
	if in.running {
		return
	}
	in.running = true
	in.scheduleNext()
}

func (in *Interferer) activity() float64 {
	if in.Activity == nil {
		return 1
	}
	return in.Activity(in.eng.Now())
}

func (in *Interferer) scheduleNext() {
	if !in.running {
		return
	}
	act := in.activity()
	if act <= 0 {
		// Quiet period: poll again soon for the activity profile to rise.
		in.eng.Schedule(sim.Second, in.scheduleNext)
		return
	}
	gap := sim.Duration(in.eng.Rand().ExpFloat64() * float64(in.meanGap) / act)
	in.eng.Schedule(gap, in.burst)
}

func (in *Interferer) burst() {
	if !in.running {
		return
	}
	if in.radio.Transmitting() {
		in.eng.Schedule(in.burstMean, in.scheduleNext)
		return
	}
	d := sim.Duration(in.eng.Rand().ExpFloat64() * float64(in.burstMean))
	if d < UnitBackoff {
		d = UnitBackoff
	}
	// Emit noise as back-to-back maximal "frames" covering the burst.
	n := int(d / AirTime(MaxPHYPayload))
	if n < 1 {
		n = 1
	}
	in.burstLeft = n
	in.emit()
}

// emit puts the burst's next noise frame on air, or ends the burst. It is
// the noise radio's OnTxDone, so the frames go out back to back.
func (in *Interferer) emit() {
	if in.burstLeft == 0 || !in.running {
		in.scheduleNext()
		return
	}
	in.burstLeft--
	in.radio.Transmit(noiseFrame[:])
}
