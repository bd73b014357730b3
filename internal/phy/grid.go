package phy

import "math"

// CellGrid buckets point ids by square cell so that every point within
// one cell size of p is found in the 3×3 cells around p's. Cells are
// hashed into flat arrays rather than laid out over a bounding box, so
// points may be added one at a time anywhere in the plane (which
// mesh.RandomGeometric's fallback placement needs) and building the grid costs
// three allocations whatever the point count.
type CellGrid struct {
	cell  float64
	shift uint
	head  []int32  // head[b] = newest id in hash bucket b, -1 if none
	next  []int32  // next[id] = the id added to the same bucket before it, -1 if none
	key   []uint64 // key[id] = id's cell: other cells can share its bucket
}

// NewCellGrid returns an empty grid for ids 0..n-1 with the given cell
// size.
func NewCellGrid(cell float64, n int) *CellGrid {
	bits := uint(1)
	for 1<<bits < n {
		bits++
	}
	g := &CellGrid{
		cell:  cell,
		shift: 64 - bits,
		head:  make([]int32, 1<<bits),
		next:  make([]int32, n),
		key:   make([]uint64, n),
	}
	for b := range g.head {
		g.head[b] = -1
	}
	return g
}

func (g *CellGrid) cellOf(p Point) (cx, cy int32) {
	return int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Y / g.cell))
}

func cellKey(cx, cy int32) uint64 { return uint64(uint32(cx))<<32 | uint64(uint32(cy)) }

// bucket is Fibonacci hashing: the top bits of key × 2^64/φ.
func (g *CellGrid) bucket(key uint64) uint64 { return key * 0x9E3779B97F4A7C15 >> g.shift }

// Add indexes id at p.
func (g *CellGrid) Add(id int, p Point) {
	k := cellKey(g.cellOf(p))
	b := g.bucket(k)
	g.key[id] = k
	g.next[id] = g.head[b]
	g.head[b] = int32(id)
}

// Near calls visit with each id added in the 3×3 cells around p, once
// each, until visit returns false.
func (g *CellGrid) Near(p Point, visit func(id int) bool) {
	cx, cy := g.cellOf(p)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			k := cellKey(cx+dx, cy+dy)
			for id := g.head[g.bucket(k)]; id >= 0; id = g.next[id] {
				if g.key[id] == k && !visit(int(id)) {
					return
				}
			}
		}
	}
}
