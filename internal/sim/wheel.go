package sim

import "math/bits"

// Hierarchical timer wheel: Engine's event queue.
//
// The wheel has wheelLevels levels of wheelSlots slots each, with a 1 µs
// tick at level 0, so level l covers a 2^(wheelBits*(l+1)) µs window around
// the wheel base and the top level spans every Time. An event lives at the
// lowest level whose parent window it shares with the base (Linux-style
// placement): level 0 slots therefore hold exactly one distinct fire time
// each, and every event at level l ≥ 1 sits in a slot past the base's own
// at that level, later than everything below.
//
// base is a lower bound on every wheel-resident fire time, and it only ever
// advances: to the event a pop returns, and — in settle, when level 0 has run
// empty — to the earliest fire time left in the wheel, if that is due by the
// pop's deadline. That event is in the first occupied slot of the lowest
// occupied level (the levels below are empty, the slots before it too), so
// settle drains that one slot, moves the base to the earliest time in it
// rather than to the slot's start, and re-files its events against the new
// base: the earliest lands in level 0, the rest as low as their distance
// from it allows, none of them to be touched again at the levels in
// between. A list whose events all fire at that one time — a lone timer, or
// ties scheduled at different instants — is handed to its level-0 slot as
// it is. A slot whose earliest event is past the deadline
// stays as it is, so the base never passes the clock at a RunUntil stop,
// and At puts an empty wheel's base on the clock: every event is scheduled
// at or after the base. While an event's callback runs, the base is at its
// fire time, so every other event due then sits in one level-0 slot.
//
// Pops preserve the engine's (when, seq) firing order bit-identically. Every
// slot list is in seq order. insert keeps it so: an event scheduled by At
// has the largest seq yet and is appended, and so is each event a drained
// list deals out in list order into lists that were empty (all lower levels
// were); only a continuation (Engine.Then), which reserved its seq when it
// was attached, can land ahead of entries already there, and insert walks
// the list to its place. A level-0 list holds one fire time, so its head is
// the smallest seq at the wheel's earliest time.
//
// A frame's end is one entry here, the sender's txDone: the channel's endTx
// is its continuation, and enters the wheel only when liveBefore finds a
// live event sequenced between the two.
const (
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 11 // 66 bits: every non-negative Time
)

// evList is an intrusive FIFO of events threaded through Event.next. It is
// circular — the tail's next is the head — so a slot is one pointer and the
// slot table 5.5 KiB, allocated once per engine (a sweep builds one per run).
type evList struct {
	tail *Event // nil when empty
}

func (l *evList) append(ev *Event) {
	if l.tail == nil {
		ev.next = ev
	} else {
		ev.next = l.tail.next
		l.tail.next = ev
	}
	l.tail = ev
}

type wheel struct {
	base   Time // ≤ every wheel-resident fire time; after settle, the earliest
	slot   [wheelLevels][wheelSlots]evList
	occ    [wheelLevels]uint64 // per-level slot-occupancy bitmaps
	queued int                 // wheel-resident entries, cancelled included
	// refiled counts the entries settle re-filed one by one, and
	// refiledCancelled those of them already cancelled (Counters).
	refiled, refiledCancelled uint64
}

// insert files ev at the lowest level sharing a parent window with base,
// at its seq's place in the slot list (the end, unless ev is a
// continuation); ev must not fire before the base.
func (w *wheel) insert(ev *Event) {
	level := 0
	if d := uint64(ev.when ^ w.base); d != 0 {
		level = (bits.Len64(d) - 1) / wheelBits
	}
	s := (uint64(ev.when) >> (level * wheelBits)) & wheelMask
	lst := &w.slot[level][s]
	if lst.tail == nil || lst.tail.seq < ev.seq {
		lst.append(ev)
	} else {
		prev := lst.tail // the head's predecessor
		for prev.next.seq < ev.seq {
			prev = prev.next
		}
		ev.next, prev.next = prev.next, ev
	}
	w.occ[level] |= 1 << s
	w.queued++
}

// liveBefore reports whether an uncancelled event due at c's fire time is
// sequenced before c. Only valid while the base is at that time (the
// callback of the event c follows has just run), when every such event is
// in one level-0 slot, in seq order.
func (w *wheel) liveBefore(c *Event) bool {
	lst := w.slot[0][c.when&wheelMask]
	if lst.tail == nil {
		return false
	}
	for ev := lst.tail.next; ev.seq < c.seq; ev = ev.next {
		if !ev.cancelled {
			return true
		}
		if ev == lst.tail {
			break
		}
	}
	return false
}

// settle makes level 0 hold the wheel's earliest events: when it is empty,
// the first occupied slot of the lowest occupied level is drained, the base
// advances to the earliest fire time in it, and its events are re-filed
// against that base (see the header). It reports whether the earliest event
// fires by deadline; when it does not, or the wheel is empty, the wheel is
// left as it was.
func (w *wheel) settle(deadline Time) bool {
	if w.occ[0] != 0 {
		return w.slot[0][bits.TrailingZeros64(w.occ[0])].tail.next.when <= deadline
	}
	level := 1
	for ; level < wheelLevels && w.occ[level] == 0; level++ {
	}
	if level == wheelLevels {
		return false
	}
	s := bits.TrailingZeros64(w.occ[level])
	lst := w.slot[level][s]
	head := lst.tail.next
	first, same := head.when, true
	for ev := head.next; ev != head; ev = ev.next {
		if ev.when != first {
			same = false
			first = min(first, ev.when)
		}
	}
	if first > deadline {
		return false
	}
	w.slot[level][s] = evList{}
	w.occ[level] &^= 1 << uint(s)
	w.base = first
	if same {
		s0 := uint(first & wheelMask)
		w.slot[0][s0] = lst
		w.occ[0] |= 1 << s0
		return true
	}
	for ev := head; ; {
		next := ev.next
		w.queued--
		w.refiled++
		if ev.cancelled {
			w.refiledCancelled++
		}
		w.insert(ev) // below level: it shares the drained slot with the base
		if ev == lst.tail {
			return true
		}
		ev = next
	}
}

// popMin removes and returns the earliest event (head of the minimum
// level-0 slot = smallest seq at that time) and advances the base to it.
// Only valid after settle returned true.
func (w *wheel) popMin() *Event {
	s := bits.TrailingZeros64(w.occ[0])
	lst := &w.slot[0][s]
	ev := lst.tail.next
	if ev == lst.tail {
		lst.tail = nil
		w.occ[0] &^= 1 << uint(s)
	} else {
		lst.tail.next = ev.next
	}
	w.queued--
	w.base = ev.when
	return ev
}
