package sim

import (
	"math"
	"math/rand"
)

// Event is a scheduled callback. The zero value is not useful; Events are
// created by Engine.Schedule and Engine.At. An Event may be cancelled
// before it fires; cancelling a fired or already-cancelled event is a
// harmless no-op, which lets protocol code unconditionally cancel timers.
// A pending event can carry a continuation (Engine.Then), which fires at
// its place in (when, seq) order whether or not the event itself does.
//
// Event objects are pooled: once an event has fired (or been cancelled and
// collected), the engine may reuse the object for a future Schedule/At
// call, with a new seq, so holders must drop their reference at that
// point or, as Timer does, keep the seq with it and compare.
type Event struct {
	when      Time
	seq       uint64 // tie-break so equal-time events fire in schedule order
	fn        func()
	next      *Event // wheel slot list / free list link
	then      *Event // continuation (Engine.Then), kept out of the wheel
	cancelled bool
}

// Engine is a single-threaded discrete-event scheduler with a deterministic
// random source. It is not safe for concurrent use: the entire simulated
// network runs in one goroutine, which is what makes runs reproducible.
//
// Internally the queue is a hierarchical timer wheel spanning every Time
// (see wheel.go), with fired events recycled through a free list, so the
// steady-state hot path of Schedule → fire performs no allocation. Firing
// order is bit-identical to a single (when, seq) priority queue.
//
// A continuation (Then) is the one event that need not pass through the
// wheel. It holds the seq At would have given it when it was attached, so
// its place in that order is fixed then. Once its parent's callback has
// returned, the continuation is next in (when, seq) order unless a live
// event at the same instant is sequenced before it: everything else at that
// instant was either sequenced before the parent (and has fired) or after
// the continuation (At hands out increasing seqs, and a callback can only
// schedule at or after the clock). So the engine checks that one slot, runs
// the continuation next when it is clear, and otherwise files it in the
// wheel at its (when, seq) place, where it fires exactly as an At would
// have. Under -tags invariants every event fired is checked to follow the
// one before it in (when, seq) order.
type Engine struct {
	now   Time
	wheel wheel
	free  *Event // recycled Event objects
	next  *Event // a continuation that fires before anything in the wheel
	seq   uint64
	live  int // scheduled, uncancelled, unfired events, continuations included
	rng   *rand.Rand
	fired uint64
	cnt   Counters
	order orderCheck // -tags invariants: the last (when, seq) fired
}

// Counters is what the engine's queue did over its life, for the run
// manifest. Each is one integer add on a path the engine takes anyway.
type Counters struct {
	// ThenInline counts continuations that fired straight after their
	// parent, never entering the wheel.
	ThenInline uint64 `json:"then_inline"`
	// ThenFiled counts continuations filed in the wheel at their reserved
	// (when, seq): a live event at their instant was sequenced between
	// them and their parent, or the parent was cancelled.
	ThenFiled uint64 `json:"then_filed"`
	// CancelledPops counts cancelled entries discarded on reaching the
	// head of the queue (cancellation is lazy).
	CancelledPops uint64 `json:"cancelled_pops"`
	// Refiled counts the entries the wheel re-filed one by one into lower
	// levels when it drained a slot (a slot whose entries all fire at one
	// time moves whole and counts none), and RefiledCancelled those of
	// them that were already cancelled: the work eager cancellation would
	// have saved there.
	Refiled          uint64 `json:"refiled"`
	RefiledCancelled uint64 `json:"refiled_cancelled"`
}

// NewEngine returns an engine whose clock starts at 0 and whose random
// source is seeded with seed. Two engines with the same seed and the same
// schedule of calls produce identical runs.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Processed returns the number of events fired so far (for diagnostics).
// A continuation counts as one event of its own, as the At it replaces
// would.
func (e *Engine) Processed() uint64 { return e.fired }

// Pending returns the number of events currently scheduled, each pending
// continuation counted as one.
func (e *Engine) Pending() int { return e.live }

// Counters returns the queue's counters so far.
func (e *Engine) Counters() Counters {
	c := e.cnt
	c.Refiled, c.RefiledCancelled = e.wheel.refiled, e.wheel.refiledCancelled
	return c
}

// Schedule arms fn to run after delay d. A negative delay is treated as
// zero. The returned Event can be cancelled.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// At arms fn to run at absolute time t. Times in the past run "now" (at
// the current time, after already-queued events for this instant).
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.when, ev.seq, ev.fn = t, e.seq, fn
	if e.wheel.queued == 0 {
		// Empty wheel: put the base on the clock, so short delays stay in
		// level 0 even after a Step discarded cancelled entries past it.
		e.wheel.base = e.now
	}
	e.wheel.insert(ev)
	e.live++
	return ev
}

// Then attaches fn to parent, a pending event, as its continuation: fn runs
// at parent's fire time, after parent's callback, in the (when, seq) place
// that At(parent's time, fn) called now would give it. It takes the seq
// that At would take, so no other event's order moves; what it saves is
// the wheel entry, since the continuation almost always fires straight
// after its parent (see Engine). Cancelling parent does not cancel the
// continuation, which still fires in its place. An event carries at most
// one continuation, and a continuation cannot itself be cancelled. Then on
// a cancelled parent is At(parent's time, fn).
func (e *Engine) Then(parent *Event, fn func()) {
	if parent.cancelled {
		e.At(parent.when, fn)
		return
	}
	if parent.then != nil {
		panic("sim: Then on an event that already has a continuation")
	}
	e.seq++
	c := e.alloc()
	c.when, c.seq, c.fn = parent.when, e.seq, fn
	parent.then = c
	e.live++
}

func (e *Engine) alloc() *Event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		ev.next = nil
		ev.cancelled = false
		return ev
	}
	return &Event{}
}

// recycle returns a fired or cancelled-and-collected event to the free
// list. Leaving cancelled set keeps post-fire Cancel calls no-ops until the
// object is reused.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.then = nil
	ev.cancelled = true
	ev.next = e.free
	e.free = ev
}

// Cancel removes ev from the queue if it has not fired. Safe to call with
// nil or with an event that already fired (until the object is reused).
// Cancellation is lazy: the entry stays queued and is discarded when its
// fire time is reached. A continuation ev carries is filed in the wheel at
// its reserved place, to fire as if ev had not been cancelled.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	e.live--
	if c := ev.then; c != nil {
		ev.then = nil
		e.wheel.insert(c) // ev is still queued, so the base is at or before c
		e.cnt.ThenFiled++
	}
}

// popNext removes and returns the next live event in (when, seq) order if
// it fires at or before deadline, discarding the cancelled entries it finds
// ahead of it. It returns nil when nothing live is due by then. Step, Run
// and RunUntil all take their events here: a continuation waiting to run
// next, or else the wheel, settled once and its head examined once per
// event fired.
func (e *Engine) popNext(deadline Time) *Event {
	if c := e.next; c != nil {
		if c.when > deadline {
			return nil
		}
		e.next = nil
		return c
	}
	for e.wheel.settle(deadline) {
		ev := e.wheel.popMin()
		if !ev.cancelled {
			return ev
		}
		e.cnt.CancelledPops++
		e.recycle(ev)
	}
	return nil
}

// fire runs ev, advancing the clock to it, then queues its continuation.
func (e *Engine) fire(ev *Event) {
	e.order.check(ev)
	e.now = ev.when
	e.live--
	e.fired++
	fn, c := ev.fn, ev.then
	e.recycle(ev)
	fn()
	if c != nil {
		e.follow(c)
	}
}

// follow queues c, the continuation of the event that just fired: next in
// line when no live event at its instant is sequenced before it, filed in
// the wheel at its reserved (when, seq) otherwise (see Engine).
func (e *Engine) follow(c *Event) {
	if e.wheel.liveBefore(c) {
		e.wheel.insert(c)
		e.cnt.ThenFiled++
		return
	}
	e.next = c
	e.cnt.ThenInline++
}

// Step fires the next event, advancing the clock. It returns false when
// the queue is empty. A continuation is an event of its own: the Step after
// its parent's fires it.
func (e *Engine) Step() bool {
	ev := e.popNext(math.MaxInt64)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// RunUntil processes events with time ≤ deadline, then sets the clock to
// deadline. Events scheduled during the run are processed if they fall
// within the deadline.
func (e *Engine) RunUntil(deadline Time) {
	for ev := e.popNext(deadline); ev != nil; ev = e.popNext(deadline) {
		e.fire(ev)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Run processes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
