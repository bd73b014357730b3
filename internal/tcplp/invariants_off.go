//go:build !invariants

package tcplp

// checkInvariants is the connection's self-check after every input,
// output and timer callback; this build compiles it to nothing. See
// invariants_on.go (go test -tags invariants).
func (c *Conn) checkInvariants(string) {}

// checked is the timer-callback wrapper of the invariants build; here a
// timer fires its callback directly.
func (c *Conn) checked(_ string, f func()) func() { return f }
