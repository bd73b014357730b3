package phy

import (
	"cmp"
	"slices"

	"tcplp/internal/obs"
	"tcplp/internal/poison"
	"tcplp/internal/sim"
)

// transmission is a frame in flight on the channel. Objects are pooled per
// channel; endFn is built once so scheduling a frame's end allocates
// nothing.
//
// The on-air bytes belong to the transmission: beginTx copies the
// sender's frame into buf, and data is a slice of it. endTx is the
// continuation of the sender's txDone event (sim.Engine.Then), so the
// sender's OnTxDone fires first at the same timestamp, and a MAC may reuse
// its frame buffer for the next frame before this one's receivers have
// been handed the bytes.
type transmission struct {
	sender *Radio
	buf    [MaxPHYPayload]byte
	data   []byte // buf[:n]
	start  sim.Time
	end    sim.Time
	jid    int64      // journey packet id snapshot (metadata; 0 = untagged)
	serial uint32     // what a receiver's radioHot.rx holds while locked onto this frame
	nbrs   []nbrEntry // sender's sensed-neighbor snapshot at frame start
	// locked is 1 + the registration index of the first radio beginTx
	// locked onto this frame (0 = none); each locked radio's
	// radioHot.lockNext links the next, in neighbor order.
	locked int32
	endFn  func()
	next   *transmission // pool free list
}

// nbrEntry is one cached neighbor of a radio: it senses the radio's
// transmissions. It is the neighbor's registration index, complemented
// (so negative) when the neighbor can also decode them: four bytes an
// entry, read back without a branch.
type nbrEntry int32

func makeNbrEntry(idx int32, connected bool) nbrEntry {
	if connected {
		return nbrEntry(^idx)
	}
	return nbrEntry(idx)
}

// idx returns the neighbor's registration index.
func (e nbrEntry) idx() int32 { return int32(e) ^ int32(e)>>31 }

// connected reports whether the neighbor decodes the radio's frames.
func (e nbrEntry) connected() bool { return e < 0 }

// radioHot is the per-radio state a transmission's fan-out reads and
// writes, one entry per radio in Channel.hot ("Hot state and frame
// filter" in the package comment). It holds no pointers, so the collector
// neither scans the slice nor write-barriers its stores, and it fits a
// cache line (TestRadioHotLayout).
type radioHot struct {
	// acc[s] is the time spent in state s, except that the current
	// state's entry is short by the instant that state was entered:
	// entering s at t subtracts t, leaving at t' adds t' (see timeIn).
	// That keeps a transition to two additions and saves a separate
	// "state since" field.
	acc        [4]sim.Duration
	framesRecv uint64
	rxDropped  uint64
	sensed     int32  // on-air transmissions from sensed neighbors
	rx         uint32 // serial of the transmission being received (0 = none)
	// lockNext links the radios a frame's beginTx locked onto
	// (transmission.locked): 1 + the next one's registration index, 0 at
	// the end. A radio is on one frame's list at a time: until that frame
	// ends, its energy keeps sensed above zero, and beginTx locks only a
	// radio that senses nothing else.
	lockNext  int32
	state     State
	corrupted bool // the reception in progress overlapped other energy
	filter    bool // address recognition on (Radio.SetAddressFilter)
	ackWait   bool // the MAC is awaiting an immediate ACK (Radio.SetAckWait)
}

func (h *radioHot) setState(s State, now sim.Time) {
	if s == h.state {
		return
	}
	h.acc[h.state] += sim.Duration(now)
	h.acc[s] -= sim.Duration(now)
	h.state = s
}

func (h *radioHot) timeIn(s State, now sim.Time) sim.Duration {
	d := h.acc[s]
	if h.state == s {
		d += sim.Duration(now)
	}
	return d
}

func (h *radioHot) beginRx(serial uint32, now sim.Time) {
	h.rx = serial
	h.corrupted = false
	h.setState(StateRx, now)
}

// abortRx drops the reception in progress, if any (the radio is about to
// sleep or transmit).
func (h *radioHot) abortRx() {
	if h.rx != 0 {
		h.rx = 0
		h.corrupted = false
		h.rxDropped++
	}
}

// Who a frame is for, decided once per transmission by Channel.frameDst: a
// radio's registration index, or one of these.
const (
	dstNobody     int32 = -1 - iota // malformed, or no filtering radio has that address
	dstAckWaiters                   // an ACK: carries no address
	dstEveryone                     // broadcast
)

// wants reports whether the radio at registration index idx hands a decoded
// frame for dst up to OnReceive. A promiscuous radio hands up everything.
func (h *radioHot) wants(idx, dst int32) bool {
	switch {
	case !h.filter, dst == dstEveryone:
		return true
	case dst == dstAckWaiters:
		return h.ackWait
	}
	return idx == dst
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
// Who senses whom is asked of the propagation model once per topology
// (neighbors) and cached per radio. A transmission walks its sender's list
// at frame start, raising each neighbor's sensed-energy counter and
// locking the listeners that can decode it, and the same snapshot at frame
// end to drop the energy again, so a radio moved mid-frame changes sensing
// from the next frame on, under any model. Receptions are then resolved
// over the locked radios only.
type Channel struct {
	eng    *sim.Engine
	prop   Propagation
	radios []*Radio
	hot    []radioHot // parallel to radios
	// slab holds the Radio structs Reserve made room for and AddRadio has
	// not handed out yet: a known topology's radios are one allocation.
	slab []Radio
	// filterIdx maps a node id to 1 + the registration index of the
	// filtering radio with that id's address (0 = none): how frameDst
	// resolves a unicast destination.
	filterIdx []int32
	txFree    *transmission
	txSerial  uint32
	// rxBuf is the one receive buffer: endRx copies a decoded frame into
	// it for the length of a radio's OnReceive call.
	rxBuf [MaxPHYPayload]byte
	// version counts AddRadio calls (and SetPos, in tests): what cached
	// neighbor lists, and the grid a *UnitDisk's are built from, are
	// valid against.
	version     uint64
	grid        *CellGrid
	gridVersion uint64
	nbrScratch  []nbrEntry // where neighbors collects a list before sizing it
	cnt         Counters

	// PER returns the probability that a frame from src to dst is
	// corrupted despite no collision. Nil means a perfect channel.
	PER func(src, dst *Radio) float64

	// Wake, when set, is called for a radio with no OnReceive that wants
	// a decoded frame, before the frame is handed up: a dormant node's
	// radio, whose owner may now install OnReceive and be handed the
	// same bytes at the same instant. One hook serves every radio.
	Wake func(r *Radio)

	// Trace, when non-nil, receives phy-layer events and raw frame
	// captures (obs). Hooks only read state, so enabling it cannot
	// perturb a run.
	Trace *obs.Trace
}

// Counters is what the channel's per-frame loops did over a run, for the
// run manifest. Each is one integer add on a path the channel takes
// anyway.
type Counters struct {
	// Frames counts transmissions put on air, noise included.
	Frames uint64 `json:"frames"`
	// SensedVisits counts the sensed-neighbor entries frame starts walked;
	// frame ends walk each snapshot once more to drop its energy.
	SensedVisits uint64 `json:"sensed_visits"`
	// Resolved counts receptions resolved at frame end: a locked radio
	// still on the frame, collided, lost to PER or decoded.
	Resolved uint64 `json:"resolved"`
}

// Counters returns the channel's counters so far.
func (c *Channel) Counters() Counters { return c.cnt }

// NewChannel returns an empty channel using the given propagation model.
func NewChannel(eng *sim.Engine, prop Propagation) *Channel {
	return &Channel{eng: eng, prop: prop}
}

// Reserve sizes the channel's per-radio tables for n radios with ids below
// n, and makes those radios' structs in one piece, so registering a known
// topology neither regrows the tables nor allocates radio by radio.
func (c *Channel) Reserve(n int) {
	c.radios = slices.Grow(c.radios, n)
	c.hot = slices.Grow(c.hot, n)
	c.filterIdx = slices.Grow(c.filterIdx, n)
	c.slab = make([]Radio, n)
}

// AddRadio creates and registers a radio at pos. Radios start asleep.
func (c *Channel) AddRadio(id int, pos Point) *Radio {
	var r *Radio
	if len(c.slab) > 0 {
		r, c.slab = &c.slab[0], c.slab[1:]
	} else {
		r = new(Radio)
	}
	*r = Radio{
		eng:  c.eng,
		ch:   c,
		id:   id,
		addr: AddrFromID(id),
		pos:  pos,
		idx:  int32(len(c.radios)),
	}
	c.radios = append(c.radios, r)
	c.hot = append(c.hot, radioHot{})
	c.version++
	return r
}

// Radios returns all registered radios in registration order.
func (c *Channel) Radios() []*Radio { return c.radios }

// maxFilterID bounds the node ids filterIdx is grown for.
const maxFilterID = 1 << 22

// setFilter turns r's address recognition on or off. Switching it on
// claims r's id in filterIdx; a radio whose id cannot be claimed (out of
// the table's range, or taken by another radio with the same address)
// stays promiscuous, which its MAC cannot tell apart.
func (c *Channel) setFilter(r *Radio, on bool) {
	h := &c.hot[r.idx]
	if !on {
		if h.filter {
			h.filter = false
			c.filterIdx[r.id] = 0
		}
		return
	}
	if h.filter || r.id < 0 || r.id >= maxFilterID {
		return
	}
	if r.id >= len(c.filterIdx) {
		c.filterIdx = append(c.filterIdx, make([]int32, r.id+1-len(c.filterIdx))...)
	}
	if c.filterIdx[r.id] == 0 {
		c.filterIdx[r.id] = r.idx + 1
		h.filter = true
	}
}

// frameDst reads a frame's header and resolves who it is for: the one
// address check a transmission gets, whatever the number of listeners.
func (c *Channel) frameDst(data []byte) int32 {
	typ, dst, err := PeekHeader(data)
	switch {
	case err != nil:
		return dstNobody
	case typ == FrameAck:
		return dstAckWaiters
	case dst.IsBroadcast():
		return dstEveryone
	}
	if id := dst.ID(); uint(id) < uint(len(c.filterIdx)) {
		return c.filterIdx[id] - 1
	}
	return dstNobody
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
	poison.Bytes(t.buf[:])
	t.sender = nil
	t.data = nil
	t.nbrs = nil
	t.jid = 0
	t.next = c.txFree
	c.txFree = t
}

// busyAt reports whether any on-air transmission is sensed at r.
func (c *Channel) busyAt(r *Radio) bool { return c.hot[r.idx].sensed > 0 }

// neighbors returns the radios that sense r's transmissions, in
// registration order — which fixes delivery order and with it the engine's
// RNG stream — each marked with whether it also decodes them. It is the one
// place the propagation model is consulted: a *UnitDisk about the radios in
// the 3×3 SenseRange-sized cells around r, any other model about every
// radio. The list is cached on the radio until a radio is added or moved. It
// is collected in the channel's scratch slice and cloned at its exact size:
// a rebuild must not reuse the old list, which in-flight transmissions hold.
func (c *Channel) neighbors(r *Radio) []nbrEntry {
	if r.nbrsVersion == c.version {
		return r.nbrs
	}
	nbrs := c.nbrScratch[:0]
	if ud, ok := c.prop.(*UnitDisk); ok && ud.SenseRange > 0 {
		if c.gridVersion != c.version {
			c.grid = NewCellGrid(ud.SenseRange, len(c.radios))
			for i, o := range c.radios {
				c.grid.Add(i, o.pos)
			}
			c.gridVersion = c.version
		}
		for _, i := range c.grid.Near(r.pos) {
			for ; i >= 0; i = c.grid.Next(i) {
				if o := c.radios[i]; ud.Senses(r, o) {
					nbrs = append(nbrs, makeNbrEntry(i, ud.Connected(r, o)))
				}
			}
		}
		slices.SortFunc(nbrs, func(a, b nbrEntry) int { return cmp.Compare(a.idx(), b.idx()) })
	} else {
		for _, o := range c.radios {
			if o != r && c.prop.Senses(r, o) {
				nbrs = append(nbrs, makeNbrEntry(o.idx, c.prop.Connected(r, o)))
			}
		}
	}
	c.nbrScratch = nbrs
	r.nbrs, r.nbrsVersion = slices.Clone(nbrs), c.version
	return r.nbrs
}

// beginTx is called by a radio when its frame's first bit hits the air.
func (c *Channel) beginTx(sender *Radio, data []byte, air sim.Duration) {
	now := c.eng.Now()
	if tr := c.Trace; tr != nil {
		tr.Emit(obs.Event{T: now, Kind: obs.PhyTx, Node: sender.id, A: int64(air), Len: len(data), J: sender.TxJID})
		if tr.WantsFrames() && !sender.NoiseOnly {
			tr.Frame(now, sender.id, data)
		}
	}
	t := c.allocTx()
	t.sender, t.data = sender, t.buf[:copy(t.buf[:], data)]
	t.jid = sender.TxJID
	t.start, t.end = now, now.Add(air)
	if c.txSerial++; c.txSerial == 0 {
		c.txSerial = 1 // 0 means "not receiving"
	}
	t.serial = c.txSerial
	decodable := !sender.NoiseOnly

	nbrs := c.neighbors(sender)
	t.nbrs = nbrs
	c.cnt.Frames++
	c.cnt.SensedVisits += uint64(len(nbrs))
	hot := c.hot
	link := &t.locked // where the next locked radio's index goes
	for _, nb := range nbrs {
		i := nb.idx()
		h := &hot[i]
		h.sensed++
		switch h.state {
		case StateRx:
			h.corrupted = true
		case StateListen:
			// sensed == 1 means t is the only energy at the radio (a
			// radio's own frames never count toward its own sensing).
			if decodable && nb.connected() && h.sensed == 1 {
				h.beginRx(t.serial, now)
				*link = i + 1
				link = &h.lockNext
			}
		}
	}
	*link = 0

	// The frame ends when the sender's txDone fires, right after it.
	c.eng.Then(sender.txDone, t.endFn)
}

// endTx resolves all receptions of t and removes it from the air.
func (c *Channel) endTx(t *transmission) {
	dst := c.frameDst(t.data)
	// Drop t's energy everywhere before delivering: reception callbacks
	// may run CCAs.
	hot := c.hot
	for _, nb := range t.nbrs {
		hot[nb.idx()].sensed--
	}
	c.checkLocked(t)
	// Only a radio beginTx locked can hold t's serial, so walking the
	// locked list visits every receiver the full snapshot would, in the
	// same (neighbor) order. One that slept or started transmitting since
	// has let go of t: rx no longer matches.
	for i := t.locked; i != 0; {
		idx := i - 1
		// c.hot afresh each time: a callback may have added a radio.
		i = c.hot[idx].lockNext
		if c.hot[idx].rx == t.serial {
			c.endRx(idx, t, dst)
		}
	}
	c.releaseTx(t)
}

// endRx finishes the reception of t at the radio with registration index
// idx. What a run can observe happens for every locked receiver, in
// neighbor order: the state change, the PER draw, the counters and the
// trace events. Only the copy into the channel's receive buffer and the
// call upward depend on whether the radio wants a frame for dst.
func (c *Channel) endRx(idx int32, t *transmission, dst int32) {
	c.cnt.Resolved++
	h := &c.hot[idx]
	now := c.eng.Now()
	// PER is asked about every locked receiver, collided or not: callers
	// may count the calls.
	per := 0.0
	if c.PER != nil {
		per = c.PER(t.sender, c.radios[idx])
	}
	corrupted := h.corrupted
	h.rx = 0
	h.corrupted = false
	h.setState(StateListen, now)
	if corrupted {
		h.rxDropped++
		if tr := c.Trace; tr != nil {
			tr.Emit(obs.Event{T: now, Kind: obs.PhyCollision, Node: c.radios[idx].id, Len: len(t.data), J: t.jid, Cause: obs.CauseCollision})
		}
		return
	}
	if per > 0 && c.eng.Rand().Float64() < per {
		h.rxDropped++
		if tr := c.Trace; tr != nil {
			tr.Emit(obs.Event{T: now, Kind: obs.PhyRxDrop, Node: c.radios[idx].id, A: 1, Len: len(t.data), J: t.jid, Cause: obs.CausePER})
		}
		return
	}
	h.framesRecv++
	if !h.wants(idx, dst) {
		return
	}
	r := c.radios[idx]
	if r.OnReceive == nil && c.Wake != nil {
		c.Wake(r)
	}
	if r.OnReceive != nil {
		n := copy(c.rxBuf[:], t.data)
		r.RxJID = t.jid
		r.OnReceive(c.rxBuf[:n])
		r.RxJID = 0
		poison.Bytes(c.rxBuf[:])
	}
}
