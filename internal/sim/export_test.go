package sim

// When returns the time the event is (or was) scheduled to fire.
func (ev *Event) When() Time { return ev.when }

// Cancelled reports whether Cancel was called before the event fired.
func (ev *Event) Cancelled() bool { return ev.cancelled }
