//go:build invariants

package sim

import (
	"strings"
	"testing"
)

// The firing-order check fires: a continuation queued to run next while an
// event sequenced before it is still due at its instant is caught as it
// runs.
func TestOrderCheckFires(t *testing.T) {
	e := NewEngine(1)
	e.At(10, func() {})
	e.At(10, func() {})
	e.Step()
	c := e.alloc()
	c.when, c.seq, c.fn = 10, 100, func() {}
	e.next, e.live = c, e.live+1 // ahead of the live event with seq 2
	e.Step()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "sim: invariant") {
			t.Fatalf("recovered %q, want the order check's panic", msg)
		}
	}()
	e.Step()
	t.Fatal("an event fired out of (when, seq) order went unnoticed")
}
