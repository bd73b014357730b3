package sim

// Timer is a restartable one-shot timer, the shape protocol code wants for
// retransmission/delayed-ACK/persist timers: Reset rearms, Stop disarms,
// and the callback is fixed at construction. It wraps Engine events so a
// stale (already-cancelled) event can never fire the callback.
type Timer struct {
	eng  *Engine
	fn   func()
	wrap func() // built once so Reset does not allocate
	ev   *Event
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{}
	t.Init(eng, fn)
	return t
}

// Init is NewTimer for a Timer held by value, as a field of its owner:
// it turns the zero Timer into a stopped one that will invoke fn. The
// timer must not be copied afterwards.
func (t *Timer) Init(eng *Engine, fn func()) {
	t.eng, t.fn = eng, fn
	t.wrap = func() {
		t.ev = nil
		t.fn()
	}
}

// Reset (re)arms the timer to fire after d, replacing any pending firing.
func (t *Timer) Reset(d Duration) {
	t.Stop()
	t.ev = t.eng.Schedule(d, t.wrap)
}

// ResetAt (re)arms the timer to fire at absolute time when.
func (t *Timer) ResetAt(when Time) {
	t.Stop()
	t.ev = t.eng.At(when, t.wrap)
}

// Stop disarms the timer. Safe to call on a stopped timer.
func (t *Timer) Stop() {
	if t.ev != nil {
		t.eng.Cancel(t.ev)
		t.ev = nil
	}
}

// Armed reports whether the timer is pending.
func (t *Timer) Armed() bool { return t.ev != nil }

// Deadline returns the pending fire time; ok is false if the timer is
// stopped.
func (t *Timer) Deadline() (when Time, ok bool) {
	if t.ev == nil {
		return 0, false
	}
	return t.ev.when, true
}
