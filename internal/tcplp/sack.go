package tcplp

// scoreboard tracks which ranges beyond snd.una the peer has selectively
// acknowledged (RFC 2018 sender side). It is a small sorted list of
// non-overlapping ranges — with a four-segment window it can never hold
// more than a couple of entries, which is why SACK is affordable on a
// mote.
type scoreboard struct {
	ranges []SACKBlock // sorted by Start, non-overlapping
}

// Add merges a reported SACK block. Blocks at or below una are stale and
// ignored.
func (sb *scoreboard) Add(blk SACKBlock, una Seq) {
	if blk.End.LEQ(blk.Start) || blk.End.LEQ(una) {
		return
	}
	if blk.Start.LT(una) {
		blk.Start = una
	}
	var out []SACKBlock
	inserted := false
	for _, r := range sb.ranges {
		switch {
		case r.End.LT(blk.Start):
			out = append(out, r)
		case blk.End.LT(r.Start):
			if !inserted {
				out = append(out, blk)
				inserted = true
			}
			out = append(out, r)
		default: // overlap or adjacency: absorb
			blk.Start = minSeq(blk.Start, r.Start)
			blk.End = maxSeq(blk.End, r.End)
		}
	}
	if !inserted {
		out = append(out, blk)
	}
	sb.ranges = out
}

// AdvanceUna drops ranges covered by a cumulative ACK to una.
func (sb *scoreboard) AdvanceUna(una Seq) {
	out := sb.ranges[:0]
	for _, r := range sb.ranges {
		if r.End.GT(una) {
			if r.Start.LT(una) {
				r.Start = una
			}
			out = append(out, r)
		}
	}
	sb.ranges = out
}

// Reset clears the scoreboard (after an RTO, conservatively forgetting
// SACK information as FreeBSD does).
func (sb *scoreboard) Reset() { sb.ranges = sb.ranges[:0] }

// SackedBytes returns the total bytes covered by the scoreboard.
func (sb *scoreboard) SackedBytes() int {
	n := 0
	for _, r := range sb.ranges {
		n += r.End.Diff(r.Start)
	}
	return n
}

// NextHole returns the first unSACKed range within [una, max), scanning
// for retransmission candidates during SACK-based recovery. ok is false
// when everything below max is SACKed.
func (sb *scoreboard) NextHole(una, max Seq) (SACKBlock, bool) {
	at := una
	for _, r := range sb.ranges {
		if r.End.LEQ(at) {
			continue
		}
		if at.LT(r.Start) {
			end := minSeq(r.Start, max)
			if at.LT(end) {
				return SACKBlock{Start: at, End: end}, true
			}
			return SACKBlock{}, false
		}
		at = r.End
	}
	if at.LT(max) {
		return SACKBlock{Start: at, End: max}, true
	}
	return SACKBlock{}, false
}

// Empty reports whether no ranges are recorded.
func (sb *scoreboard) Empty() bool { return len(sb.ranges) == 0 }
