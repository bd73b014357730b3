package phy

import "math"

// Point is a node position in meters.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
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
	return a != b && a.pos.Dist(b.pos) <= u.TxRange
}

// Senses reports whether a's transmissions raise energy at b.
func (u *UnitDisk) Senses(a, b *Radio) bool {
	return a != b && a.pos.Dist(b.pos) <= u.SenseRange
}

// Graph is an explicit adjacency model for tests and contrived topologies.
// Links are directional; use AddLink twice (or AddBiLink) for symmetry. A
// channel asks once per topology, so links must be complete before the
// first frame, or be followed by an AddRadio or SetPos.
type Graph struct {
	connected map[[2]int]bool
	senses    map[[2]int]bool
}

// NewGraph returns an empty explicit-connectivity model.
func NewGraph() *Graph {
	return &Graph{connected: map[[2]int]bool{}, senses: map[[2]int]bool{}}
}

// AddLink makes b able to decode (and sense) a.
func (g *Graph) AddLink(a, b int) {
	g.connected[[2]int{a, b}] = true
	g.senses[[2]int{a, b}] = true
}

// AddBiLink makes a and b able to decode each other.
func (g *Graph) AddBiLink(a, b int) {
	g.AddLink(a, b)
	g.AddLink(b, a)
}

// AddSense makes b sense (but not decode) a's transmissions.
func (g *Graph) AddSense(a, b int) {
	g.senses[[2]int{a, b}] = true
}

// Connected implements Propagation.
func (g *Graph) Connected(a, b *Radio) bool {
	return g.connected[[2]int{a.id, b.id}]
}

// Senses implements Propagation.
func (g *Graph) Senses(a, b *Radio) bool {
	return g.senses[[2]int{a.id, b.id}] || g.connected[[2]int{a.id, b.id}]
}
