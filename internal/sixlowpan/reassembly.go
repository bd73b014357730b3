package sixlowpan

import (
	"bytes"
	"cmp"
	"math"
	"slices"

	"tcplp/internal/bitmap"
	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/poison"
	"tcplp/internal/sim"
)

// DefaultReassemblyTimeout bounds how long a partial datagram may wait
// for its missing fragments.
const DefaultReassemblyTimeout = 10 * sim.Second

type partialKey struct {
	src phy.Addr
	tag uint16
}

type partial struct {
	header     ip6.Header // from FRAG1, valid once haveHeader
	haveHeader bool
	size       int    // uncompressed datagram size
	payload    []byte // size-40 bytes
	covered    int    // payload bytes deposited so far: the bits set in have
	deadline   sim.Time
	jid        int64 // journey packet id carried by the fragments (0 = untagged)
	// have is the coverage of payload, one bit per byte, held by value: a
	// recycled descriptor is zeroed whole, so a datagram has no bitmap to
	// allocate, pool or clear.
	have [(MaxDatagramSize - ip6.HeaderLen + 63) / 64]uint64
}

// Reassembler rebuilds IPv6 packets from 6LoWPAN link payloads. One
// instance serves one interface; partial datagrams are keyed by
// (link-layer source, datagram tag). See the package comment for who
// owns the arena and the packet Input returns.
type Reassembler struct {
	eng      *sim.Engine
	timeout  sim.Duration // DefaultReassemblyTimeout; tests shorten it
	inflight map[partialKey]*partial
	// nextExpiry is no later than the earliest deadline in inflight, so
	// expire can skip the sweep until that time (the zero value forces
	// one). Refreshing a partial only moves its deadline later, which
	// leaves a lower bound a lower bound.
	nextExpiry sim.Time

	// The arena: partial descriptors and payload buffers both recycle on
	// the completion and expiry paths alike, and grow only on a node's
	// first datagrams. pkt is what Input returns.
	freePartial []*partial
	freeBuf     [][]byte
	pkt         ip6.Packet

	// TimedOut counts datagrams dropped for missing fragments.
	TimedOut uint64

	// Trace/Node, when Trace is non-nil, emit reassembly events (obs).
	Trace *obs.Trace
	Node  int
}

// NewReassembler returns a reassembler with the default timeout.
func NewReassembler(eng *sim.Engine) *Reassembler {
	r := &Reassembler{
		eng:      eng,
		timeout:  DefaultReassemblyTimeout,
		inflight: map[partialKey]*partial{},
	}
	return r
}

// expire drops partial datagrams whose deadline has passed. It runs
// before every Input (and the tests' Pending), so a partial is gone by the first call
// at or after its deadline; between deadlines it costs one comparison
// instead of a map sweep. The partials one sweep drops go in (link
// source, tag) order, not the map's, so their FragTimeout events are
// deterministic.
func (r *Reassembler) expire() {
	now := r.eng.Now()
	if now < r.nextExpiry {
		return
	}
	earliest := sim.Time(math.MaxInt64)
	var buf [8]partialKey
	expired := buf[:0]
	for k, p := range r.inflight {
		if now >= p.deadline {
			expired = append(expired, k)
		} else if p.deadline < earliest {
			earliest = p.deadline
		}
	}
	slices.SortFunc(expired, func(a, b partialKey) int {
		if c := bytes.Compare(a.src[:], b.src[:]); c != 0 {
			return c
		}
		return cmp.Compare(a.tag, b.tag)
	})
	for _, k := range expired {
		p := r.inflight[k]
		delete(r.inflight, k)
		r.TimedOut++
		if tr := r.Trace; tr != nil {
			tr.Emit(obs.Event{T: now, Kind: obs.FragTimeout, Node: r.Node, A: int64(k.tag), J: p.jid, Cause: obs.CauseReassemblyTimeout})
		}
		r.release(p)
	}
	r.nextExpiry = earliest
}

// popPartial recycles a partial descriptor (or allocates one).
func (r *Reassembler) popPartial() *partial {
	if n := len(r.freePartial); n > 0 {
		p := r.freePartial[n-1]
		r.freePartial[n-1] = nil
		r.freePartial = r.freePartial[:n-1]
		return p
	}
	return &partial{}
}

// getBuf returns an n-byte payload buffer (contents undefined; deposit
// overwrites every byte it credits as covered).
func (r *Reassembler) getBuf(n int) []byte {
	if ln := len(r.freeBuf); ln > 0 {
		b := r.freeBuf[ln-1]
		r.freeBuf[ln-1] = nil
		r.freeBuf = r.freeBuf[:ln-1]
		if cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// release returns a partial's storage to the free lists. On the
// completion path the payload buffer is still what the returned packet
// aliases: it is only handed out again by a later Input's get.
func (r *Reassembler) release(p *partial) {
	if cap(p.payload) > 0 {
		r.freeBuf = append(r.freeBuf, p.payload)
	}
	*p = partial{}
	r.freePartial = append(r.freePartial, p)
}

// Input processes one link payload from src. When a datagram completes,
// the reassembled packet is returned. A nil packet with nil error means
// "more fragments needed" (or an unrelated dispatch, which is dropped).
// jid is the journey packet id the carrying frame was tagged with
// (0 = untagged); it is threaded onto the reassembled packet.
//
// The returned packet belongs to the reassembler and its Payload
// aliases the arena (fragmented datagram) or b (unfragmented): both are
// valid until Input is next called on this reassembler, and no longer
// than b is. A consumer that keeps either must copy.
func (r *Reassembler) Input(src phy.Addr, b []byte, jid int64) (*ip6.Packet, error) {
	if poison.Enabled {
		// The moment the previous call's packet and every free arena
		// buffer become the reassembler's to reuse.
		poison.Packet(&r.pkt)
		for _, buf := range r.freeBuf {
			poison.Bytes(buf)
		}
	}
	r.expire()
	switch Classify(b) {
	case KindUnfragmented:
		pkt := &r.pkt
		n, err := DecompressHeaderInto(&pkt.Header, b)
		if err != nil {
			return nil, err
		}
		pkt.Payload = b[n:]
		pkt.PayloadLen = uint16(len(pkt.Payload))
		pkt.JID = jid
		return pkt, nil

	case KindFrag1:
		fi, err := ParseFragment(b)
		if err != nil {
			return nil, err
		}
		if fi.DatagramSize < ip6.HeaderLen {
			return nil, ErrBadOffset // not even the header FRAG1 carries
		}
		var h ip6.Header
		n, err := DecompressHeaderInto(&h, b[fi.HeaderLen:])
		if err != nil {
			return nil, err
		}
		p := r.get(src, fi)
		p.header, p.haveHeader = h, true
		if jid != 0 {
			p.jid = jid
		}
		return r.deposit(src, fi, p, 0, b[fi.HeaderLen+n:])

	case KindFragN:
		fi, err := ParseFragment(b)
		if err != nil {
			return nil, err
		}
		if fi.Offset < 40 || fi.Offset > int(fi.DatagramSize) {
			return nil, ErrBadOffset
		}
		p := r.get(src, fi)
		if jid != 0 {
			p.jid = jid
		}
		return r.deposit(src, fi, p, fi.Offset-40, b[fi.HeaderLen:])
	}
	return nil, nil
}

func (r *Reassembler) get(src phy.Addr, fi FragInfo) *partial {
	k := partialKey{src: src, tag: fi.Tag}
	p := r.inflight[k]
	if p == nil || p.size != int(fi.DatagramSize) {
		if p != nil {
			r.release(p)
		}
		p = r.popPartial()
		p.size = int(fi.DatagramSize)
		p.payload = r.getBuf(int(fi.DatagramSize) - 40)
		r.inflight[k] = p
	}
	p.deadline = r.eng.Now().Add(r.timeout)
	if p.deadline < r.nextExpiry {
		r.nextExpiry = p.deadline
	}
	return p
}

func (r *Reassembler) deposit(src phy.Addr, fi FragInfo, p *partial, off int, data []byte) (*ip6.Packet, error) {
	if off+len(data) > len(p.payload) {
		return nil, ErrBadOffset
	}
	p.covered += bitmap.SetRange(p.have[:], off, off+len(data))
	copy(p.payload[off:], data)
	if p.covered < len(p.payload) || !p.haveHeader {
		return nil, nil
	}
	delete(r.inflight, partialKey{src: src, tag: fi.Tag})
	pkt := &r.pkt
	*pkt = ip6.Packet{Header: p.header, Payload: p.payload, JID: p.jid}
	pkt.PayloadLen = uint16(len(pkt.Payload))
	if tr := r.Trace; tr != nil {
		tr.Emit(obs.Event{T: r.eng.Now(), Kind: obs.FragReassembled, Node: r.Node, A: int64(fi.Tag), Len: p.size, J: p.jid})
	}
	r.release(p)
	return pkt, nil
}
