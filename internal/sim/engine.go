package sim

import (
	"math"
	"math/rand"
)

// Event is a scheduled callback. The zero value is not useful; Events are
// created by Engine.Schedule and Engine.At. An Event may be cancelled
// before it fires; cancelling a fired or already-cancelled event is a
// harmless no-op, which lets protocol code unconditionally cancel timers.
//
// Event objects are pooled: once an event has fired (or been cancelled and
// collected), the engine may reuse the object for a future Schedule/At
// call, so holders must drop their reference at that point — exactly what
// Timer does by clearing its pointer before invoking the callback.
type Event struct {
	when      Time
	seq       uint64 // tie-break so equal-time events fire in schedule order
	fn        func()
	next      *Event // wheel slot list / free list link
	cancelled bool
}

// When returns the time the event is (or was) scheduled to fire.
func (ev *Event) When() Time { return ev.when }

// Cancelled reports whether Cancel was called before the event fired.
func (ev *Event) Cancelled() bool { return ev.cancelled }

// Engine is a single-threaded discrete-event scheduler with a deterministic
// random source. It is not safe for concurrent use: the entire simulated
// network runs in one goroutine, which is what makes runs reproducible.
//
// Internally the queue is a hierarchical timer wheel spanning every Time
// (see wheel.go), with fired events recycled through a free list, so the
// steady-state hot path of Schedule → fire performs no allocation. Firing
// order is bit-identical to a single (when, seq) priority queue.
type Engine struct {
	now   Time
	wheel wheel
	free  *Event // recycled Event objects
	seq   uint64
	live  int // scheduled, uncancelled, unfired events
	rng   *rand.Rand
	fired uint64
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
func (e *Engine) Processed() uint64 { return e.fired }

// Pending returns the number of events currently scheduled.
func (e *Engine) Pending() int { return e.live }

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
	ev.cancelled = true
	ev.next = e.free
	e.free = ev
}

// Cancel removes ev from the queue if it has not fired. Safe to call with
// nil or with an event that already fired (until the object is reused).
// Cancellation is lazy: the entry stays queued and is discarded when its
// fire time is reached.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	e.live--
}

// popNext removes and returns the next live event in (when, seq) order if
// it fires at or before deadline, discarding the cancelled entries it finds
// ahead of it. It returns nil when nothing live is due by then. Step, Run
// and RunUntil all take their events here: the wheel is settled once and
// its head examined once per event fired.
func (e *Engine) popNext(deadline Time) *Event {
	for e.wheel.settle(deadline) {
		ev := e.wheel.popMin()
		if !ev.cancelled {
			return ev
		}
		e.recycle(ev)
	}
	return nil
}

// fire runs ev, advancing the clock to it.
func (e *Engine) fire(ev *Event) {
	e.now = ev.when
	e.live--
	e.fired++
	fn := ev.fn
	e.recycle(ev)
	fn()
}

// Step fires the next event, advancing the clock. It returns false when
// the queue is empty.
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
