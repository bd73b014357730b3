package phy

// Graph is an explicit adjacency model for tests: a Propagation with no
// geometry, with which this package's tests and package phy_test
// (equiv_test.go) wire hidden terminals by hand. Links are directional;
// use AddLink twice (or AddBiLink) for symmetry. A channel asks once per
// topology, so links must be complete before the first frame, or be
// followed by an AddRadio or SetPos.
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

// SetPos moves the radio, invalidating all cached neighbor sets. Frames
// already in flight keep the sensing snapshot taken when they hit the air.
// Nodes of a run do not move; the tests that move one call this.
func (r *Radio) SetPos(pos Point) {
	r.pos = pos
	r.ch.version++
}

// Radio returns the underlying noise radio (for positioning in tests).
func (in *Interferer) Radio() *Radio { return in.radio }

// Stop halts the burst process after the current burst. Interferers run
// for the whole run; the tests that stop one call this.
func (in *Interferer) Stop() { in.running = false }
