package phy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tcplp/internal/sim"
)

// Within must agree with Hypot where a squared comparison is least sure of
// itself: r equal to the Hypot of a random offset, one ulp either side, and
// at the edges of the band inside which Within defers to Hypot — across
// every scale from subnormal to the range above which squares overflow.
func TestWithinAtTheBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 200000; k++ {
		scale := math.Ldexp(1, rng.Intn(1100)-1070)
		p := Point{rng.NormFloat64() * scale, rng.NormFloat64() * scale}
		q := Point{rng.NormFloat64() * scale, rng.NormFloat64() * scale}
		h := math.Hypot(p.X-q.X, p.Y-q.Y)
		for _, r := range []float64{h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)),
			h * (1 - withinBand/2), h * (1 + withinBand/2), h * (1 - 2*withinBand), h * (1 + 2*withinBand)} {
			if got, want := p.Within(q, r), h <= r; got != want {
				t.Fatalf("%v.Within(%v, %v) = %v, Hypot %v says %v", p, q, r, got, h, want)
			}
		}
	}
}

// bruteNeighbors is the scan Channel.neighbors' grid walk replaced: every
// other radio, in registration order, asked with math.Hypot whether it
// senses r and whether it decodes r.
func bruteNeighbors(c *Channel, r *Radio, ud *UnitDisk) []nbrEntry {
	var out []nbrEntry
	for _, o := range c.radios {
		d := math.Hypot(r.pos.X-o.pos.X, r.pos.Y-o.pos.Y)
		if o != r && d <= ud.SenseRange {
			out = append(out, makeNbrEntry(o.idx, d <= ud.TxRange))
		}
	}
	return out
}

// uniformLayout scatters n points over a square sized so that a point has
// about degree others within rng.
func uniformLayout(n int, degree, rng float64, seed int64) []Point {
	src := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(n) * math.Pi * rng * rng / degree)
	pos := make([]Point, n)
	for i := range pos {
		pos[i] = Point{src.Float64() * side, src.Float64() * side}
	}
	return pos
}

// Every radio's neighbor list must be the brute-force scan's, on random
// fields and on layouts whose radios sit exactly at the decode or sense
// range (or a rounding away from it), for unit-disk models whose ranges are
// and are not exact binary fractions.
func TestNeighborsMatchBruteForce(t *testing.T) {
	type layout struct {
		tx, sense float64
		pos       []Point
	}
	layouts := map[string]layout{
		"exact_at_ranges": {10, 13, []Point{{}, {X: 10}, {Y: -10}, {X: 6, Y: 8}, {X: -8, Y: 6}, {Y: 13}, {X: -13},
			{X: 5, Y: -12}, {X: 12, Y: 5}, {X: 10, Y: 10}, {X: 3, Y: 4}}},
		"thirds": {1.0 / 3, 13.0 / 30, []Point{{}, {X: 1.0 / 3}, {X: 0.2, Y: 4.0 / 15}, {Y: -13.0 / 30},
			{X: 1.0 / 6, Y: 0.4}, {X: 0.7, Y: 0.1}}},
		"tenths":     {0.1, 0.3, []Point{{}, {X: 0.1}, {X: 0.06, Y: 0.08}, {X: 0.18, Y: 0.24}, {Y: 0.3}, {X: 0.3, Y: 0.1}}},
		"coincident": {1, 1, make([]Point, 6)},
		"line":       {1, 1.5, []Point{{}, {X: 1}, {X: 2}, {X: 3}, {X: 4.5}}},
	}
	// The sparsest fields are wider than the grid's table is square: some
	// buckets hold cells a stride apart.
	for _, n := range []int{2, 60, 800, 3000} {
		for seed, degree := range []float64{0.5, 8, 30} {
			layouts[fmt.Sprintf("random n=%d degree=%g", n, degree)] = layout{10, 13, uniformLayout(n, degree, 10, int64(seed))}
		}
	}
	for name, l := range layouts {
		ud := NewUnitDisk(l.tx, l.sense)
		ch := NewChannel(sim.NewEngine(1), ud)
		for i, p := range l.pos {
			ch.AddRadio(i, p)
		}
		for _, r := range ch.Radios() {
			if got, want := ch.neighbors(r), bruteNeighbors(ch, r, ud); !slices.Equal(got, want) {
				t.Fatalf("%s: radio %d neighbors %v, want %v", name, r.idx, got, want)
			}
		}
	}
}

// BenchmarkChannelNeighbors times the neighbor lists a 10 000-radio field
// builds on each radio's first transmission: one op is every radio's build,
// after the channel's grid is made afresh.
func BenchmarkChannelNeighbors(b *testing.B) {
	ch := NewChannel(sim.NewEngine(1), NewUnitDisk(10, 13))
	for i, p := range uniformLayout(10000, 16, 10, 1) {
		ch.AddRadio(i, p)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ch.version++ // as an AddRadio would: every list and the grid are stale
		for _, r := range ch.radios {
			ch.neighbors(r)
		}
	}
}
