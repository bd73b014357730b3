package energy

import "tcplp/internal/sim"

// Busy returns the accumulated CPU time since the last Reset.
func (m *CPUMeter) Busy() sim.Duration { return m.busy }
