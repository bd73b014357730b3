package phy

import "math"

// CellGrid buckets point ids by square cell so that every point within
// one cell size of p is found in the 3×3 cells around p's. Cells are
// hashed into flat arrays rather than laid out over a bounding box, so
// points may be added one at a time anywhere in the plane (which
// mesh.RandomGeometric's fallback placement needs) and building the grid
// costs three allocations whatever the point count.
//
// Cell (cx, cy) goes to bucket cx·stride + cy modulo the table size, with
// stride odd and a little over the table's square root. So the nine cells
// around a point always land in nine distinct buckets (the table has at
// least 16), and a row of cells, or a field up to about the table's square
// root on a side, gets one bucket per cell. A bucket that does hold
// several cells hands its callers the other cells' ids as well: the grid
// does not tell them apart, since every caller tests the distance of what
// it is handed anyway.
//
// Ids are added in increasing order — every caller numbers its points as
// it adds them — so each bucket's chain runs from the highest id down.
type CellGrid struct {
	cell   float64
	stride uint32
	mask   uint32
	head   []int32 // head[b] = newest id in bucket b, -1 if none
	next   []int32 // next[id] = the id added to the same bucket before it, -1 if none
}

// NewCellGrid returns an empty grid for ids 0..n-1 with the given cell
// size.
func NewCellGrid(cell float64, n int) *CellGrid {
	bits := uint(4)
	for 1<<bits < n {
		bits++
	}
	g := &CellGrid{
		cell:   cell,
		stride: 1<<((bits+1)/2) + 1,
		mask:   1<<bits - 1,
		head:   make([]int32, 1<<bits),
		next:   make([]int32, n),
	}
	for b := range g.head {
		g.head[b] = -1
	}
	return g
}

func (g *CellGrid) bucket(cx, cy int32) uint32 {
	return (uint32(cx)*g.stride + uint32(cy)) & g.mask
}

func (g *CellGrid) cellOf(p Point) (cx, cy int32) {
	return int32(math.Floor(p.X / g.cell)), int32(math.Floor(p.Y / g.cell))
}

// Add indexes id at p. id must be above every id added before it.
func (g *CellGrid) Add(id int, p Point) {
	b := g.bucket(g.cellOf(p))
	g.next[id] = g.head[b]
	g.head[b] = int32(id)
}

// Near returns the newest id in the bucket of each of the 3×3 cells around
// p, -1 where a bucket is empty. Walking each one down with Next visits,
// once each and highest first, every id added in those cells and any
// other cell's that shares a bucket with one:
//
//	for _, id := range g.Near(p) {
//		for ; id >= 0; id = g.Next(id) { … }
//	}
//
// A walk that wants only the ids above some i stops at the first id <= i.
func (g *CellGrid) Near(p Point) [9]int32 {
	cx, cy := g.cellOf(p)
	var heads [9]int32
	for k := range heads {
		heads[k] = g.head[g.bucket(cx+int32(k/3)-1, cy+int32(k%3)-1)]
	}
	return heads
}

// Next returns the id added to id's bucket before it, -1 if none.
func (g *CellGrid) Next(id int32) int32 { return g.next[id] }

// Bytes is the memory the grid's two tables hold.
func (g *CellGrid) Bytes() int { return 4 * (cap(g.head) + cap(g.next)) }
