//go:build !invariants

package sim

// The engine's firing-order check (invariants_on.go, go test -tags
// invariants) compiles to nothing here.

type orderCheck struct{}

func (*orderCheck) check(*Event) {}
