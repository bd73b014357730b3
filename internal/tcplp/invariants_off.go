//go:build !invariants

package tcplp

// checkInvariants (after every input, output pass and timer callback) and
// checkArm (on every arming of the retx slot) are the connection's
// self-checks; this build compiles them to nothing. See invariants_on.go.
func (c *Conn) checkInvariants(string) {}

func (c *Conn) checkArm(retxKind) {}
