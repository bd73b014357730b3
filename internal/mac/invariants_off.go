//go:build !invariants

package mac

// The MAC's self-checks (invariants_on.go, go test -tags invariants)
// compile to nothing here.

func (m *Mac) checkArm() {}

func (m *Mac) checkFinish() {}

func (m *Mac) checkInvariants(string) {}
