package phy

import "math"

// Point is a node position in meters.
type Point struct{ X, Y float64 }

// Within reports whether q lies within distance r of p. It is the one range
// test the simulator makes — node placement, the mesh adjacency and both
// UnitDisk ranges — and it returns exactly math.Hypot(p.X-q.X, p.Y-q.Y) <=
// r for every input, while calling Hypot only for pairs within a hair of
// the boundary. Its body is within, kept apart so that Within itself is
// small enough to inline into the loops that call it.
func (p Point) Within(q Point, r float64) bool {
	return within(p.X-q.X, p.Y-q.Y, r)
}

// Squared lengths are trusted only outside a relative band of withinBand
// around r², and only for ranges whose square is a normal float far from
// overflow. d2 carries a relative error of at most three roundings (plus
// an absolute one below 2^-1070 where a square underflows), r² one, and
// Hypot a few ulps: all are some 10^7 times smaller than the band, so
// wherever a squared comparison decides, Hypot would decide the same.
// Everything else (r below minSquaredRange or above maxSquaredRange —
// zero, negative, subnormal, NaN, infinite — and d2 inside the band, NaN,
// or overflowed while r² has not) is settled by Hypot itself.
const (
	withinBand      = 1e-9
	minSquaredRange = 1e-140
	maxSquaredRange = 1e140
)

// within reports whether math.Hypot(dx, dy) <= r.
func within(dx, dy, r float64) bool {
	d2 := dx*dx + dy*dy
	if r >= minSquaredRange && r <= maxSquaredRange {
		// Both comparisons, then one branch that is almost always taken:
		// which way a pair falls is not a branch to predict.
		r2 := r * r
		if in, out := d2 < r2*(1-withinBand), d2 > r2*(1+withinBand); in != out {
			return in
		}
	}
	return math.Hypot(dx, dy) <= r
}

// Propagation decides which radios hear which. Connected means a frame
// can be decoded; Senses means enough energy arrives to (a) show the
// channel busy to a CCA and (b) corrupt a concurrent reception. Senses
// must be a superset of Connected.
//
// Distinguishing the two ranges is what makes hidden terminals (§7.1)
// arise structurally: a transmitter's CCA cannot sense a node outside its
// Senses range, yet both of their frames can collide at a receiver in
// between.
//
// UnitDisk is the model every run uses; tests substitute their own
// through this interface (the explicit Graph of export_test.go).
type Propagation interface {
	Connected(a, b *Radio) bool
	Senses(a, b *Radio) bool
}

// UnitDisk is the classic unit-disk model: frames decode within TxRange
// and are sensed (carrier sense / interference) within SenseRange.
type UnitDisk struct {
	TxRange    float64
	SenseRange float64
}

// NewUnitDisk returns a model with the given decode range and an equal or
// larger sense range. If senseRange < txRange it is clamped to txRange.
func NewUnitDisk(txRange, senseRange float64) *UnitDisk {
	if senseRange < txRange {
		senseRange = txRange
	}
	return &UnitDisk{TxRange: txRange, SenseRange: senseRange}
}

// Connected reports whether b can decode a's frames.
func (u *UnitDisk) Connected(a, b *Radio) bool {
	return a != b && a.pos.Within(b.pos, u.TxRange)
}

// Senses reports whether a's transmissions raise energy at b.
func (u *UnitDisk) Senses(a, b *Radio) bool {
	return a != b && a.pos.Within(b.pos, u.SenseRange)
}
