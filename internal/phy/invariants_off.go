//go:build !invariants

package phy

// The channel's locked-list check (invariants_on.go, go test -tags
// invariants) compiles to nothing here.

func (*Channel) checkLocked(*transmission) {}
