package tcplp

import "tcplp/internal/tcplp/cc"

// Cwnd returns the congestion window in bytes.
func (c *Conn) Cwnd() int { return c.cong.Cwnd() }

// Ssthresh returns the slow-start threshold in bytes.
func (c *Conn) Ssthresh() int { return c.cong.Ssthresh() }

// Variant returns the congestion-control variant configured, NewReno
// when none is.
func (c *Conn) Variant() cc.Variant {
	if c.cfg.Variant == "" {
		return cc.NewReno
	}
	return c.cfg.Variant
}

// Close stops accepting new connections on the port. Listeners live for
// the whole run; only tests close one.
func (l *Listener) Close() { delete(l.stack.listeners, l.port) }

// ReadableBytes returns the bytes available to Read.
func (c *Conn) ReadableBytes() int { return c.rcvQ.Readable() }

// Covers reports whether [start, end) is entirely SACKed.
func (sb *scoreboard) Covers(start, end Seq) bool {
	for _, r := range sb.ranges {
		if r.Start.LEQ(start) && end.LEQ(r.End) {
			return true
		}
	}
	return false
}
