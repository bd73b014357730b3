// Package app provides the workloads of the measurement study: bulk
// transfer sources/sinks for the throughput experiments (§6-§8) and the
// anemometer telemetry application of §3/§9.
package app

import (
	"tcplp/internal/ip6"
	"tcplp/internal/stack"
	"tcplp/internal/tcplp"
)

// Sink accepts one TCP connection on a port and consumes everything sent
// to it, counting bytes — the receiving half of every throughput
// experiment.
type Sink struct {
	CountingSink
	Conn *tcplp.Conn
}

// ListenSinkConfig installs a byte-counting server whose accepted
// connections use an explicit per-flow TCP configuration (the receive
// buffer bounds the advertised window, so the flow's window must be
// applied at the sink too).
func ListenSinkConfig(node *stack.Node, port uint16, cfg tcplp.Config) *Sink {
	return listenSinkData(node, port, cfg, nil)
}

// listenSinkData is ListenSinkConfig with an optional per-chunk hook
// invoked on every drained chunk (the reading-parsing collector rides on
// it).
func listenSinkData(node *stack.Node, port uint16, cfg tcplp.Config, onData func([]byte)) *Sink {
	s := &Sink{CountingSink: CountingSink{eng: node.Eng()}}
	// One drain buffer per sink, shared across accepted connections:
	// drains run synchronously and no onData hook retains the chunk.
	buf := make([]byte, 4096)
	l := node.TCP().Listen(port, func(c *tcplp.Conn) {
		s.Conn = c
		c.OnReadable = func() {
			for {
				n := c.Read(buf)
				if n == 0 {
					break
				}
				s.Received += n
				if onData != nil {
					onData(buf[:n])
				}
			}
			if c.EOF() {
				c.Close()
			}
		}
	})
	l.Config = &cfg
	return s
}

// Source keeps a TCP connection's send buffer full with a repeating
// pattern — an unbounded bulk sender.
type Source struct {
	Conn *tcplp.Conn
	Sent int

	pattern []byte
	off     int
	stopped bool
}

// StartBulkConfig opens a connection from node to dst:port with an
// explicit per-flow TCP configuration (congestion-control variant,
// window) and streams data indefinitely (until Stop).
func StartBulkConfig(node *stack.Node, cfg tcplp.Config, dst ip6.Addr, port uint16) *Source {
	s := &Source{pattern: makePattern()}
	c := node.TCP().ConnectConfig(dst, port, cfg)
	s.Conn = c
	c.OnEstablished = s.pump
	c.OnWritable = s.pump
	return s
}

func (s *Source) pump() {
	if s.stopped {
		return
	}
	for {
		n, err := s.Conn.Write(s.pattern[s.off:])
		if err != nil || n == 0 {
			return
		}
		s.Sent += n
		s.off = (s.off + n) % len(s.pattern)
	}
}

// Stop ceases writing and closes the connection.
func (s *Source) Stop() {
	s.stopped = true
	s.Conn.Close()
}

// makePattern builds a verifiable repeating byte pattern.
func makePattern() []byte {
	p := make([]byte, 1024)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	return p
}
