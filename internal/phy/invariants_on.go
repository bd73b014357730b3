//go:build invariants

package phy

import "fmt"

// checkLocked panics unless the radios of t's sensed snapshot that still
// hold t's serial are exactly the locked list's radios that do, in the same
// order: endTx resolves receptions over the list, and this full walk of the
// snapshot is what it replaced.
func (c *Channel) checkLocked(t *transmission) {
	i := t.locked
	// next returns the next radio on the list that holds t, or -1.
	next := func() int32 {
		for ; i != 0; i = c.hot[i-1].lockNext {
			if c.hot[i-1].rx == t.serial {
				idx := i - 1
				i = c.hot[idx].lockNext
				return idx
			}
		}
		return -1
	}
	for _, nb := range t.nbrs {
		if c.hot[nb.idx].rx != t.serial {
			continue
		}
		if got := next(); got != nb.idx {
			panic(fmt.Sprintf("phy: invariant: frame %d from radio %d: radio index %d holds it, the locked list resolves index %d there",
				t.serial, t.sender.id, nb.idx, got))
		}
	}
	if got := next(); got >= 0 {
		panic(fmt.Sprintf("phy: invariant: frame %d from radio %d: the locked list resolves index %d, which is not in the snapshot",
			t.serial, t.sender.id, got))
	}
}
