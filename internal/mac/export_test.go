package mac

import "tcplp/internal/phy"

// Radio returns the underlying radio.
func (m *Mac) Radio() *phy.Radio { return m.radio }

// IndirectQueueLen returns the number of frames held for child.
func (m *Mac) IndirectQueueLen(child phy.Addr) int {
	if p := m.peer(child); p != nil {
		return len(p.indirect)
	}
	return 0
}
