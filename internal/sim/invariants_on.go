//go:build invariants

package sim

import "fmt"

// orderCheck remembers the (when, seq) of the last event fired, so that a
// continuation run next out of turn, or filed in the wrong place, fails at
// the first event that fires out of (when, seq) order.
type orderCheck struct {
	when Time
	seq  uint64
}

func (o *orderCheck) check(ev *Event) {
	if ev.when < o.when || ev.when == o.when && ev.seq <= o.seq {
		panic(fmt.Sprintf("sim: invariant: event (%d µs, seq %d) fired after (%d µs, seq %d)",
			ev.when, ev.seq, o.when, o.seq))
	}
	o.when, o.seq = ev.when, ev.seq
}
