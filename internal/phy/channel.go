package phy

import (
	"sort"

	"tcplp/internal/obs"
	"tcplp/internal/sim"
)

// transmission is a frame in flight on the channel. Objects are pooled per
// channel; endFn is built once so scheduling a frame's end allocates
// nothing.
//
// The on-air bytes belong to the transmission: beginTx copies the
// sender's frame into buf, and data is a slice of it. The sender's
// OnTxDone fires before endTx at the same timestamp, so a MAC may reuse
// its frame buffer for the next frame before this one's receivers have
// been handed the bytes.
type transmission struct {
	sender *Radio
	buf    [MaxPHYPayload]byte
	data   []byte // buf[:n]
	start  sim.Time
	end    sim.Time
	jid    int64      // journey packet id snapshot (metadata; 0 = untagged)
	nbrs   []nbrEntry // sender's sensed-neighbor snapshot at frame start (index mode)
	endFn  func()
	next   *transmission // pool free list
}

// nbrEntry is one cached neighbor of a radio under the grid index:
// within SenseRange, with connected marking decode (TxRange) reach.
type nbrEntry struct {
	r         *Radio
	connected bool
}

// gridIndex is a uniform-grid spatial index over radio positions with the
// cell edge equal to the propagation model's SenseRange, so a radio's
// sensed neighbors always lie in its own or the eight surrounding cells.
// Per-radio neighbor lists are cached and invalidated (via a version
// counter) whenever a radio is added or moved. Lists are ordered by
// registration index, which keeps delivery iteration — and therefore the
// engine's RNG stream — bit-identical to the brute-force scan.
type gridIndex struct {
	ud      *UnitDisk
	cell    float64
	cells   map[[2]int32][]*Radio
	version uint64
}

func newGridIndex(ud *UnitDisk) *gridIndex {
	if ud.SenseRange <= 0 {
		return nil
	}
	return &gridIndex{ud: ud, cell: ud.SenseRange, cells: map[[2]int32][]*Radio{}, version: 1}
}

func (g *gridIndex) keyFor(p Point) [2]int32 {
	return [2]int32{int32(fastFloor(p.X / g.cell)), int32(fastFloor(p.Y / g.cell))}
}

func fastFloor(v float64) int {
	i := int(v)
	if v < 0 && float64(i) != v {
		i--
	}
	return i
}

func (g *gridIndex) add(r *Radio) {
	k := g.keyFor(r.pos)
	r.cellKey = k
	g.cells[k] = append(g.cells[k], r)
	g.version++
}

func (g *gridIndex) move(r *Radio) {
	k := g.keyFor(r.pos)
	if k != r.cellKey {
		old := g.cells[r.cellKey]
		for i, o := range old {
			if o == r {
				g.cells[r.cellKey] = append(old[:i], old[i+1:]...)
				break
			}
		}
		r.cellKey = k
		g.cells[k] = append(g.cells[k], r)
	}
	g.version++
}

// neighbors returns r's cached sensed-neighbor list, rebuilding it if the
// topology changed since the cache was filled. A rebuild allocates a fresh
// slice: in-flight transmissions hold snapshots of the old one.
func (g *gridIndex) neighbors(r *Radio) []nbrEntry {
	if r.nbrsVersion == g.version {
		return r.nbrs
	}
	var nbrs []nbrEntry
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for _, o := range g.cells[[2]int32{r.cellKey[0] + dx, r.cellKey[1] + dy}] {
				if o == r {
					continue
				}
				d := r.pos.Dist(o.pos)
				if d <= g.ud.SenseRange {
					nbrs = append(nbrs, nbrEntry{r: o, connected: d <= g.ud.TxRange})
				}
			}
		}
	}
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].r.idx < nbrs[j].r.idx })
	r.nbrs = nbrs
	r.nbrsVersion = g.version
	return nbrs
}

// Channel is the shared medium. It registers radios, tracks on-air
// transmissions, and resolves receptions with a receiver-side collision
// model:
//
//   - A listening radio locks onto the first decodable frame whose start
//     it hears; a second overlapping frame from any sensed node corrupts
//     the reception (no capture effect).
//   - A radio that is transmitting, sleeping, or mid-frame when a frame
//     starts does not receive it.
//   - Independent per-link loss (PER) models fading and checksum failures
//     beyond collisions.
//
// Under a *UnitDisk propagation model the channel keeps a uniform-grid
// spatial index and per-radio sensed-energy counters so every operation is
// O(neighbors) instead of O(radios); DisableIndex restores the brute-force
// all-pairs scans as a reference path. Both paths produce bit-identical
// runs on static topologies. The two differ only under mid-flight node
// movement: the index evaluates sensing at frame start (snapshot), the
// scan at frame end.
type Channel struct {
	eng    *sim.Engine
	prop   Propagation
	radios []*Radio
	active []*transmission
	grid   *gridIndex
	txFree *transmission

	// PER returns the probability that a frame from src to dst is
	// corrupted despite no collision. Nil means a perfect channel.
	PER func(src, dst *Radio) float64

	// Trace, when non-nil, receives phy-layer events and raw frame
	// captures (obs). Hooks only read state, so enabling it cannot
	// perturb a run.
	Trace *obs.Trace
}

// NewChannel returns an empty channel using the given propagation model.
func NewChannel(eng *sim.Engine, prop Propagation) *Channel {
	c := &Channel{eng: eng, prop: prop}
	if ud, ok := prop.(*UnitDisk); ok {
		c.grid = newGridIndex(ud)
	}
	return c
}

// DisableIndex switches the channel to the brute-force all-pairs reference
// path. It must be called before any traffic is generated.
func (c *Channel) DisableIndex() { c.grid = nil }

// Indexed reports whether the spatial index is active.
func (c *Channel) Indexed() bool { return c.grid != nil }

// Engine returns the channel's simulation engine.
func (c *Channel) Engine() *sim.Engine { return c.eng }

// AddRadio creates and registers a radio at pos. Radios start asleep.
func (c *Channel) AddRadio(id int, pos Point) *Radio {
	r := &Radio{
		eng:  c.eng,
		ch:   c,
		id:   id,
		addr: AddrFromID(id),
		pos:  pos,
		idx:  len(c.radios),
	}
	r.txBeginFn = func() { c.beginTx(r, r.txData, r.txAir) }
	r.txDoneFn = func() {
		r.setState(StateListen)
		if r.OnTxDone != nil {
			r.OnTxDone()
		}
	}
	c.radios = append(c.radios, r)
	if c.grid != nil {
		c.grid.add(r)
	}
	return r
}

// Radios returns all registered radios in registration order.
func (c *Channel) Radios() []*Radio { return c.radios }

// moved tells the channel r's position changed: the spatial index re-files
// the radio and all cached neighbor sets are invalidated.
func (c *Channel) moved(r *Radio) {
	if c.grid != nil {
		c.grid.move(r)
	}
}

func (c *Channel) allocTx() *transmission {
	if t := c.txFree; t != nil {
		c.txFree = t.next
		t.next = nil
		return t
	}
	t := &transmission{}
	t.endFn = func() { c.endTx(t) }
	return t
}

func (c *Channel) releaseTx(t *transmission) {
	t.sender = nil
	t.data = nil
	t.nbrs = nil
	t.jid = 0
	t.next = c.txFree
	c.txFree = t
}

// busyAt reports whether any on-air transmission is sensed at r.
func (c *Channel) busyAt(r *Radio) bool {
	if c.grid != nil {
		return r.sensedCount > 0
	}
	for _, t := range c.active {
		if t.sender == r {
			continue
		}
		if c.prop.Senses(t.sender, r) {
			return true
		}
	}
	return false
}

// beginTx is called by a radio when its frame's first bit hits the air.
func (c *Channel) beginTx(sender *Radio, data []byte, air sim.Duration) {
	if tr := c.Trace; tr != nil {
		tr.Emit(obs.Event{T: c.eng.Now(), Kind: obs.PhyTx, Node: sender.id, A: int64(air), Len: len(data), J: sender.TxJID})
		if tr.WantsFrames() && !sender.NoiseOnly {
			tr.Frame(c.eng.Now(), sender.id, data)
		}
	}
	t := c.allocTx()
	t.sender, t.data = sender, t.buf[:copy(t.buf[:], data)]
	t.jid = sender.TxJID
	t.start, t.end = c.eng.Now(), c.eng.Now().Add(air)
	c.active = append(c.active, t)

	if c.grid != nil {
		nbrs := c.grid.neighbors(sender)
		t.nbrs = nbrs
		for _, nb := range nbrs {
			r := nb.r
			r.sensedCount++
			switch r.state {
			case StateRx:
				r.interfered()
			case StateListen:
				// sensedCount == 1 means t is the only energy at r (a
				// radio's own frames never count toward its own sensing),
				// matching the brute-force otherEnergyAt check.
				if !sender.NoiseOnly && nb.connected && r.sensedCount == 1 {
					r.beginRx(t)
				}
			}
		}
	} else {
		for _, r := range c.radios {
			if r == sender {
				continue
			}
			if !c.prop.Senses(sender, r) {
				continue
			}
			switch r.state {
			case StateRx:
				// Overlap corrupts whatever r was receiving; the new frame is
				// also lost to r (it never locked onto it).
				r.interfered()
			case StateListen:
				if !sender.NoiseOnly && c.prop.Connected(sender, r) && !c.otherEnergyAt(r, t) {
					r.beginRx(t)
				}
				// If there is already other energy at r, the new frame is
				// undecodable noise to r; nothing to corrupt since r was idle.
			}
		}
	}

	c.eng.Schedule(air, t.endFn)
}

// otherEnergyAt reports whether a transmission other than t is currently
// sensed at r (so r cannot lock onto t). Brute-force path only.
func (c *Channel) otherEnergyAt(r *Radio, t *transmission) bool {
	for _, o := range c.active {
		if o == t || o.sender == r {
			continue
		}
		if c.prop.Senses(o.sender, r) {
			return true
		}
	}
	return false
}

// endTx resolves all receptions of t and removes it from the air.
func (c *Channel) endTx(t *transmission) {
	for i, o := range c.active {
		if o == t {
			c.active = append(c.active[:i], c.active[i+1:]...)
			break
		}
	}
	if t.nbrs != nil {
		// Drop t's energy everywhere before delivering: reception
		// callbacks may run CCAs.
		for _, nb := range t.nbrs {
			nb.r.sensedCount--
		}
		for _, nb := range t.nbrs {
			r := nb.r
			if r.rx == t {
				per := 0.0
				if c.PER != nil {
					per = c.PER(t.sender, r)
				}
				r.endRx(t, per)
			}
		}
	} else {
		for _, r := range c.radios {
			if r.rx == t {
				per := 0.0
				if c.PER != nil {
					per = c.PER(t.sender, r)
				}
				r.endRx(t, per)
			}
		}
	}
	c.releaseTx(t)
}
