package sim

// Timer is a restartable one-shot timer, the shape protocol code wants for
// retransmission/delayed-ACK/persist timers: Reset rearms, Stop disarms,
// and the callback is fixed at construction. The engine runs the callback
// itself; the timer knows its event by the pointer and the seq it was
// given. A fired event is recycled with cancelled set and a reused one
// gets a new seq, so a timer whose event fired, or went to another
// Schedule, is stopped and never cancels that other event.
type Timer struct {
	eng *Engine
	fn  func()
	ev  *Event
	seq uint64 // ev.seq when the timer armed it
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{}
	t.Init(eng, fn)
	return t
}

// Init is NewTimer for a Timer held by value, as a field of its owner:
// it turns the zero Timer into a stopped one that will invoke fn.
func (t *Timer) Init(eng *Engine, fn func()) {
	t.eng, t.fn = eng, fn
}

// Reset (re)arms the timer to fire after d, replacing any pending firing.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.ev = t.eng.Schedule(d, t.fn)
	t.seq = t.ev.seq
}

// ResetAt (re)arms the timer to fire at absolute time when.
func (t *Timer) ResetAt(when Time) {
	t.Stop()
	t.ev = t.eng.At(when, t.fn)
	t.seq = t.ev.seq
}

// Stop disarms the timer. Safe to call on a stopped timer.
func (t *Timer) Stop() {
	if t.Armed() {
		t.eng.Cancel(t.ev)
	}
	t.ev = nil
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool {
	return t.ev != nil && t.ev.seq == t.seq && !t.ev.cancelled
}

// Deadline returns the pending fire time; ok is false if the timer is
// stopped.
func (t *Timer) Deadline() (when Time, ok bool) {
	if !t.Armed() {
		return 0, false
	}
	return t.ev.when, true
}
