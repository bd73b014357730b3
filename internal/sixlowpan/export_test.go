package sixlowpan

// Pending returns the number of partially reassembled datagrams.
func (r *Reassembler) Pending() int {
	r.expire()
	return len(r.inflight)
}
