// Package energy provides the duty-cycle instrumentation of §9.2: radio
// duty cycle comes from the radio's state tracking (phy); CPU duty cycle
// comes from a documented per-operation cost model, since a discrete-event
// simulation has no real microcontroller to measure.
//
// The cost model is a substitution (the costs below): absolute CPU numbers
// are model outputs, calibrated so a batched anemometer workload lands in
// the paper's ≈1% range; only relative comparisons (TCP vs CoAP, batching
// vs not) are claimed.
package energy

import "tcplp/internal/sim"

// The CPU time charged per operation, for a 48 MHz Cortex-M0+ running a
// software MAC: the 4 ms SPI transfer of a full frame is CPU-attended,
// transport processing is sub-millisecond (§6.4 finds TCP processing does
// not limit throughput).
const (
	// FrameTxCost / FrameRxCost cover driver work per 802.15.4 frame,
	// dominated by the SPI transfer the paper measures (§6.4).
	FrameTxCost = 4 * sim.Millisecond
	FrameRxCost = 2 * sim.Millisecond
	// SegmentCost covers transport-layer processing per TCP segment or
	// CoAP message.
	SegmentCost = 600 * sim.Microsecond
	// PerKByteCost covers payload copies, per 1024 bytes moved at the app
	// boundary.
	PerKByteCost = 250 * sim.Microsecond
)

// CPUMeter accumulates CPU busy time against the simulation clock.
type CPUMeter struct {
	eng   *sim.Engine
	busy  sim.Duration
	since sim.Time
}

// MakeCPUMeter returns a meter by value: a node holds its meter as a
// field, not as one more object.
func MakeCPUMeter(eng *sim.Engine) CPUMeter {
	return CPUMeter{eng: eng}
}

// Charge adds d of CPU busy time.
func (m *CPUMeter) Charge(d sim.Duration) {
	if d > 0 {
		m.busy += d
	}
}

// ChargeFrameTx charges the per-frame transmit cost.
func (m *CPUMeter) ChargeFrameTx() { m.Charge(FrameTxCost) }

// ChargeFrameRx charges the per-frame receive cost.
func (m *CPUMeter) ChargeFrameRx() { m.Charge(FrameRxCost) }

// ChargeSegment charges the per-segment transport cost.
func (m *CPUMeter) ChargeSegment() { m.Charge(SegmentCost) }

// ChargeBytes charges the copy cost for n payload bytes.
func (m *CPUMeter) ChargeBytes(n int) {
	m.Charge(PerKByteCost * sim.Duration(n) / 1024)
}

// DutyCycle returns busy time divided by wall time since the last Reset.
func (m *CPUMeter) DutyCycle() float64 {
	elapsed := m.eng.Now().Sub(m.since)
	if elapsed <= 0 {
		return 0
	}
	dc := float64(m.busy) / float64(elapsed)
	if dc > 1 {
		dc = 1
	}
	return dc
}

// Reset zeroes the accumulator and restarts the measurement window.
func (m *CPUMeter) Reset() {
	m.busy = 0
	m.since = m.eng.Now()
}
