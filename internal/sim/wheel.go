package sim

import "math/bits"

// Hierarchical timer wheel backing Engine's event queue.
//
// The wheel has wheelLevels levels of wheelSlots slots each, with a 1 µs
// tick at level 0, so level l covers a 2^(wheelBits*(l+1)) µs window around
// the wheel base. An event lives at the lowest level whose parent window it
// shares with the base (Linux-style placement): level 0 slots therefore hold
// exactly one distinct fire time each, and every event at level l ≥ 1 sits
// in a slot past the base's own at that level, later than everything below.
//
// base is a lower bound on every wheel-resident fire time, and it only ever
// advances: to the event a pop returns, and — in settle, when level 0 has run
// empty — to the earliest fire time left in the wheel. That event is in the
// first occupied slot of the lowest occupied level (the levels below are
// empty, the slots before it too), so settle drains that one slot, moves
// the base to the earliest time in it rather than to the slot's start, and
// re-files its events against the new base: the earliest lands in level 0,
// the rest as low as their distance from it allows, none of them to be
// touched again at the levels in between. A list whose events all fire at
// that one time — a lone timer, or a frame's txDone + endTx pair — is handed
// to its level-0 slot as it is.
//
// Pops preserve the engine's (when, seq) firing order bit-identically. Every
// slot list is in schedule order: direct inserts append as they are
// scheduled, and a drained list is dealt out in list order into lists that
// were empty (all lower levels were), so whatever is inserted there
// afterwards was scheduled, and therefore sequenced, later. A level-0 list
// holds one fire time, so its head is the smallest seq at the wheel's
// earliest time.
//
// Events outside the top-level window — and events behind the base, which a
// caller can schedule after an overflow pop or after a RunUntil that stopped
// short of the event settle moved the base to — go to a (when, seq) min-heap
// instead. An entry filed there for being behind the base is strictly
// earlier than every wheel event, then and later. On equal fire times the
// heap entry was always scheduled first (the base is monotone, so the
// far-away insert happened earlier), which is why Engine pops the overflow
// heap on ties.
const (
	wheelBits     = 6
	wheelSlots    = 1 << wheelBits
	wheelMask     = wheelSlots - 1
	wheelLevels   = 5
	wheelSpanBits = wheelBits * wheelLevels // ≈ 17.9 simulated minutes
)

// evList is an intrusive singly-linked FIFO of events threaded through
// Event.next.
type evList struct {
	head, tail *Event
}

func (l *evList) append(ev *Event) {
	ev.next = nil
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

type wheel struct {
	base   Time // ≤ every wheel-resident fire time; after settle, the earliest
	slot   [wheelLevels][wheelSlots]evList
	occ    [wheelLevels]uint64 // per-level slot-occupancy bitmaps
	queued int                 // wheel-resident entries, cancelled included
}

// insert files ev at the lowest level sharing a parent window with base.
// It reports false — leaving ev untouched — when the event belongs in the
// overflow heap instead (fires beyond the top window, or behind the base).
func (w *wheel) insert(ev *Event) bool {
	if ev.when < w.base {
		return false
	}
	d := uint64(ev.when ^ w.base)
	if d>>wheelSpanBits != 0 {
		return false
	}
	level := 0
	if d != 0 {
		level = (bits.Len64(d) - 1) / wheelBits
	}
	s := (uint64(ev.when) >> (level * wheelBits)) & wheelMask
	w.slot[level][s].append(ev)
	w.occ[level] |= 1 << s
	w.queued++
	return true
}

// settle makes level 0 hold the wheel's earliest events: when it is empty,
// the first occupied slot of the lowest occupied level is drained, the base
// advances to the earliest fire time in it, and its events are re-filed
// against that base (see the header). It reports false when the wheel holds
// no events at all.
func (w *wheel) settle() bool {
	if w.occ[0] != 0 {
		return true
	}
	level := 1
	for ; level < wheelLevels && w.occ[level] == 0; level++ {
	}
	if level == wheelLevels {
		return false
	}
	s := bits.TrailingZeros64(w.occ[level])
	lst := w.slot[level][s]
	w.slot[level][s] = evList{}
	w.occ[level] &^= 1 << uint(s)
	first, same := lst.head.when, true
	for ev := lst.head.next; ev != nil; ev = ev.next {
		if ev.when != first {
			same = false
			first = min(first, ev.when)
		}
	}
	w.base = first
	if same {
		s0 := uint(first & wheelMask)
		w.slot[0][s0] = lst
		w.occ[0] |= 1 << s0
		return true
	}
	for ev := lst.head; ev != nil; {
		next := ev.next
		w.queued--
		w.insert(ev) // below level: it shares the drained slot with the base
		ev = next
	}
	return true
}

// peekMin returns the earliest event (head of the minimum level-0 slot =
// smallest seq at that time) without removing it. Only valid after settle
// returned true.
func (w *wheel) peekMin() *Event {
	return w.slot[0][bits.TrailingZeros64(w.occ[0])].head
}

// popMin removes and returns the earliest event and advances the base to
// it. Only valid after settle returned true.
func (w *wheel) popMin() *Event {
	s := bits.TrailingZeros64(w.occ[0])
	lst := &w.slot[0][s]
	ev := lst.head
	lst.head = ev.next
	if lst.head == nil {
		lst.tail = nil
		w.occ[0] &^= 1 << uint(s)
	}
	w.queued--
	w.base = ev.when
	return ev
}
