package udp

// Unbind removes a port binding.
func (s *Stack) Unbind(port uint16) { delete(s.handlers, port) }
