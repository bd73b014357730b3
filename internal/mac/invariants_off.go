//go:build !invariants

package mac

// The MAC's self-checks (invariants_on.go, go test -tags invariants)
// compile to nothing here: stepCount keeps no count, and each wrapper
// returns the callback it was given.

type stepCount struct{}

func (*stepCount) add(int) {}

func (m *Mac) step(_ string, f func()) func() { return f }

func (m *Mac) checked(_ string, f func()) func() { return f }

func (m *Mac) checkedRx(f func([]byte)) func([]byte) { return f }

func (m *Mac) checkFinish() {}
