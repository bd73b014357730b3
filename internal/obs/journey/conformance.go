package journey

import (
	"fmt"

	"tcplp/internal/obs"
)

// Violation is one reading that breaks the conformance contract.
type Violation struct {
	Node int
	Seq  uint32
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d seq %d: %s", v.Node, v.Seq, v.Msg)
}

// ConformanceResult is the trace conformance checker's verdict over one
// run: every generated reading must terminate in exactly one of
// delivered, lost-with-typed-cause, or in-flight (the end-of-run
// backlog), and a delivered reading's attribution must telescope
// exactly to its end-to-end latency.
type ConformanceResult struct {
	Generated, Delivered, Lost, InFlight int
	LostByCause                          map[string]int
	InFlightByStage                      map[string]int
	Violations                           []Violation
}

// Err returns nil when the trace conforms, else an error naming the
// first violations.
func (c *ConformanceResult) Err() error {
	if len(c.Violations) == 0 {
		return nil
	}
	n := len(c.Violations)
	show := c.Violations
	if len(show) > 5 {
		show = show[:5]
	}
	return fmt.Errorf("journey: %d conformance violations (first %d: %v)", n, len(show), show)
}

// Check runs the conformance checker over an analyzed report.
func Check(rep *Report) *ConformanceResult {
	c := &ConformanceResult{
		LostByCause:     map[string]int{},
		InFlightByStage: map[string]int{},
	}
	bad := func(r *Reading, format string, args ...any) {
		c.Violations = append(c.Violations, Violation{Node: r.Node, Seq: r.Seq,
			Msg: fmt.Sprintf(format, args...)})
	}
	for _, r := range rep.Readings {
		c.Generated++
		switch r.State {
		case StateDelivered:
			c.Delivered++
			// A CoAP CON request can reach its sink while every ACK back
			// is lost; the client then gives up on a reading that was
			// delivered. That is a sender-side event on a delivered
			// reading, not a second terminal state.
			if r.hasLoss && r.Cause != obs.CauseCoAPGiveUp {
				bad(r, "both delivered and lost (%s)", r.Cause)
			}
			b := &r.Buckets
			for _, s := range []struct {
				name string
				d    int64
			}{
				{"app_queue", int64(b.AppQueue)}, {"send_wait", int64(b.SendWait)},
				{"rtx_stall", int64(b.RtxStall)}, {"mesh", int64(b.Mesh)},
				{"gateway", int64(b.Gateway)}, {"wan", int64(b.WAN)},
			} {
				if s.d < 0 {
					bad(r, "negative %s bucket (%d us)", s.name, s.d)
				}
			}
			if got, want := int64(b.Total()), int64(r.End.Sub(r.Gen)); got != want {
				bad(r, "attribution sums to %d us, e2e latency is %d us", got, want)
			}
		case StateLost:
			c.Lost++
			if r.Cause == obs.CauseNone {
				bad(r, "lost without a cause")
			}
			c.LostByCause[r.Cause.String()]++
		default:
			c.InFlight++
			c.InFlightByStage[r.Stage]++
		}
	}
	if c.Delivered+c.Lost+c.InFlight != c.Generated {
		c.Violations = append(c.Violations, Violation{
			Msg: fmt.Sprintf("state counts %d+%d+%d do not cover %d generated readings",
				c.Delivered, c.Lost, c.InFlight, c.Generated)})
	}
	return c
}
