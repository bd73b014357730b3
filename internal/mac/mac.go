// Package mac implements the software MAC the paper builds to avoid the
// AT86RF233's "deaf listening" (§4): unslotted CSMA-CA and link-layer
// retransmissions run in software with the radio kept in listen mode
// between attempts, immediate ACKs carry the frame-pending bit, and a
// random delay of up to d between link retries avoids repeated
// hidden-terminal collisions (§7.1).
//
// It also implements the Thread-style indirect delivery used for
// duty-cycled leaf nodes (§3.2, §9.5, Appendix C): a parent holds frames
// for a sleepy child until the child polls with a DataRequest command.
//
// # Buffer ownership
//
// Like the mote, a MAC has one frame buffer per queued frame and the
// per-frame path allocates nothing in steady state. The buffer is a
// transmit job's, and jobs come from a JobPool that the MACs of one
// network share (Init; a MAC built by New has its own): a job finished
// here may carry another MAC's next frame at once. SendJID borrows the
// caller's payload until the frame is loaded (kick), when it is encoded
// into the wire buffer inside the transmit job; the caller may recycle
// the payload once its done callback has run. The job's buffer is what
// every link retry puts on air. When the first bit hits the air the
// channel copies the bytes into its own pooled transmission, which owns
// them until each receiver that wants the frame has been handed a copy in
// the channel's receive buffer: the radio's OnTxDone fires before the
// channel resolves receptions at the same instant, so a frame that needs
// no ACK finishes — and its job may be re-encoded for the next frame —
// before the receivers have been handed the bytes. The immediate ACK is
// encoded into a 5-byte per-MAC buffer under the same rule.
//
// # What the radio filters
//
// New switches on the radio's address filter (package phy, "Hot state and
// frame filter"), so radioReceive runs only for well-formed frames
// addressed to this node or to broadcast, and for ACKs while one is
// awaited: radioTxDone, runStep, stopAckWait and finish keep the radio's
// ACK-wait bit equal to awaitingAck() (TestAckWaitBitTracksTimer).
// receive and handleAck still make every check themselves — the MAC
// decides, the radio only spares it frames it would have discarded.
//
// # One frame, one step
//
// One frame is in flight at a time, and it waits on one thing: the SPI
// load, a CSMA backoff, the CCA or its ACK — the Mac's one step timer,
// whose next field names what runStep runs — or the air, the radio's
// OnTxDone. The ACK is awaited exactly while the timer holds the ACK
// timeout (awaitingAck); an ACK this MAC sends cuts that wait short and
// leaves any other step armed. finish runs only from a frame's last step,
// so it returns the job to the pool at once: no step of a finished job
// is left to run against the object's next life, at this MAC or another.
// A frame queued behind an ACK being sent starts when the ACK leaves the
// air (ackDone), one queued behind a frame in flight starts from finish.
// The -tags invariants build panics on a step armed over a pending one or
// a frame finished under one, and checks for a lost wakeup after every
// step and radio callback (invariants_on.go).
//
// The -tags poison build (package poison) overwrites a job's wire buffer
// when the job is recycled, and the channel does the same to a released
// transmission and to its receive buffer after each OnReceive returns,
// so a test that moves under the tag has read one of them too late.
package mac

import (
	"tcplp/internal/obs"
	"tcplp/internal/phy"
	"tcplp/internal/poison"
	"tcplp/internal/sim"
)

// TxStatus is the outcome of a link-layer transmission attempt.
type TxStatus int

// Transmission outcomes.
const (
	TxOK TxStatus = iota
	TxNoAck
	TxChannelBusy
)

func (s TxStatus) String() string {
	switch s {
	case TxOK:
		return "ok"
	case TxNoAck:
		return "no-ack"
	case TxChannelBusy:
		return "channel-busy"
	}
	return "unknown"
}

// The unslotted CSMA-CA constants, at IEEE 802.15.4's defaults for
// macMinBE, macMaxBE and macMaxCSMABackoffs.
const (
	minBackoffExp   = 3
	maxBackoffExp   = 5
	maxCSMABackoffs = 4
)

// maxFrameRetries is the number of link-layer retransmissions after the
// initial attempt.
const maxFrameRetries = 7

// Params are the ARQ parameters. The zero value is not useful; use
// DefaultParams.
type Params struct {
	// maxRetries is maxFrameRetries; tests lower it.
	maxRetries int
	// RetryDelayMax is the paper's d: before each link retry the node
	// waits uniform[0, d] in addition to CSMA backoff, so two frames
	// that collided are unlikely to collide again (§7.1).
	RetryDelayMax sim.Duration
}

// DefaultParams mirrors IEEE 802.15.4 defaults plus the paper's software
// link-retry scheme with d = 40 ms, the value §7.1 recommends.
func DefaultParams() Params {
	return Params{
		maxRetries:    maxFrameRetries,
		RetryDelayMax: 40 * sim.Millisecond,
	}
}

// Stats counts MAC activity for the Fig. 6d "total frames transmitted"
// measurement and loss analysis.
type Stats struct {
	DataSent     uint64 // successful link transmissions (ACKed or no-ACK-needed)
	DataDropped  uint64 // frames dropped after exhausting retries
	Retries      uint64 // link-layer retransmission attempts
	CSMAFailures uint64 // channel-access failures (CCA busy too many times)
	AcksSent     uint64
	Duplicates   uint64 // MAC-level duplicate frames suppressed
	DataReqSent  uint64
	IndirectSent uint64
}

// txJob is one frame's transmit state. Jobs come from a JobPool (see
// "Buffer ownership" in the package comment): getJob hands out a zeroed
// job, putJob takes it back. A job is free, queued, held for a sleepy
// child or in flight, one at a time, so one link serves the pool's free
// list and the MAC's transmit queue.
type txJob struct {
	frame    phy.Frame
	wire     []byte // wireBuf[:n]: encoded once, when loaded into the frame buffer
	wireBuf  [phy.MaxPHYPayload]byte
	done     func(TxStatus)
	pollDone func(TxStatus, bool) // data-request jobs: also gets the ACK's pending bit
	attempts int
	nb, be   int
	indirect bool
	jid      int64  // journey packet id of the carried datagram (0 = untagged)
	next     *txJob // free list or transmit queue
}

// JobPool is a free list of transmit jobs: one per network, shared by
// the MACs on its engine, and so by one goroutine.
type JobPool struct {
	free *txJob
	made int
}

// Made returns how many jobs the pool has made.
func (p *JobPool) Made() int { return p.made }

// Mac is one node's MAC instance.
type Mac struct {
	eng    *sim.Engine
	radio  *phy.Radio
	params Params

	seq uint8
	// qHead and qTail are the transmit queue, linked through txJob.next.
	qHead, qTail *txJob
	inflight     *txJob
	jobs         *JobPool
	// step is the engine event the frame in flight waits on, and next
	// the step it runs (package comment, "One frame, one step").
	step sim.Timer
	next stepKind
	// sendingAck is set while the ACK being sent is on air (one at a
	// time); ackWasWaiting records that sending it cut an ACK wait short.
	sendingAck    bool
	ackWasWaiting bool
	ackBuf        [phy.AckFrameLen]byte // wire bytes of the ACK being sent
	// rxFrame is the decode target for inbound frames: one reception is
	// processed at a time, and no handler retains the Frame (payload
	// consumers copy what they keep), so one struct per MAC suffices.
	rxFrame phy.Frame
	// lastAckPending records the frame-pending bit of the most recent
	// ACK that completed one of our transmissions (data-request polls).
	lastAckPending bool

	// IdleListen decides whether the radio should listen when the MAC is
	// idle. Always-on routers return true; a SleepController installs a
	// policy that usually returns false. Nil means always listen.
	IdleListen func() bool

	// Trace, when non-nil, receives MAC-layer events (obs). Hooks only
	// read state after the RNG draws they describe, so enabling it
	// cannot perturb a run.
	Trace *obs.Trace

	// OnReceive is invoked for every accepted data or command frame.
	OnReceive func(f *phy.Frame)

	// peers holds one record per neighbour that sent this MAC a frame or
	// is its sleepy child: a handful, searched in full.
	peers []peer

	Stats Stats
}

// stepKind names what the frame in flight does when its step fires.
type stepKind uint8

const (
	stepResume     stepKind = iota // load done or retry delay elapsed: start CSMA
	stepBackoff                    // radio freed mid-backoff: take another backoff step
	stepFire                       // backoff+CCA delay elapsed: assess the channel
	stepAckTimeout                 // no ACK within phy.AckWait
)

var stepNames = [...]string{"resume", "backoff step", "backoff fire", "ack timeout"}

// peer is what a MAC keeps about one neighbour: the sequence number of
// the last frame it accepted from it (duplicate suppression) and, for a
// sleepy child, the frames held until the child polls (indirect
// delivery).
type peer struct {
	addr     phy.Addr
	lastSeq  uint8
	seen     bool // lastSeq is a received frame's
	sleepy   bool
	indirect []*txJob
}

// peer returns the record of neighbour a, or nil.
func (m *Mac) peer(a phy.Addr) *peer {
	for i := range m.peers {
		if m.peers[i].addr == a {
			return &m.peers[i]
		}
	}
	return nil
}

// addPeer returns the record of neighbour a, adding it if there is none.
// A record returned earlier may move.
func (m *Mac) addPeer(a phy.Addr) *peer {
	if p := m.peer(a); p != nil {
		return p
	}
	m.peers = append(m.peers, peer{addr: a})
	return &m.peers[len(m.peers)-1]
}

// New wires a MAC with a job pool of its own onto a radio.
func New(eng *sim.Engine, radio *phy.Radio, params Params) *Mac {
	m := new(Mac)
	m.Init(eng, radio, params, new(JobPool))
	return m
}

// Init wires the zero MAC m onto a radio, taking its transmit jobs from
// jobs, which the other MACs on eng may share. The radio's
// OnReceive/OnTxDone callbacks are owned by the MAC from this point on.
func (m *Mac) Init(eng *sim.Engine, radio *phy.Radio, params Params, jobs *JobPool) {
	// The neighbour records start at the first frame received or the
	// first sleepy child: a MAC that only sends and is ACKed has none.
	m.eng, m.radio, m.params, m.jobs = eng, radio, params, jobs
	m.step.Init(eng, m.runStep)
	radio.OnTxDone = m.radioTxDone
	radio.OnReceive = m.radioReceive
	radio.SetAddressFilter(true)
	m.applyIdleState()
}

// getJob returns a zeroed transmit job from the pool, building a new one
// only when the pool is empty.
func (m *Mac) getJob() *txJob {
	p := m.jobs
	if job := p.free; job != nil {
		p.free, job.next = job.next, nil
		return job
	}
	p.made++
	return &txJob{}
}

// putJob recycles a finished job.
func (m *Mac) putJob(job *txJob) {
	poison.Bytes(job.wireBuf[:])
	job.frame = phy.Frame{}
	job.wire, job.done, job.pollDone = nil, nil, nil
	job.indirect, job.jid = false, 0
	job.next, m.jobs.free = m.jobs.free, job
}

// SetChildSleepy registers a sleepy child: unicast frames to it are held
// in the indirect queue until it polls.
func (m *Mac) SetChildSleepy(child phy.Addr) {
	m.addPeer(child).sleepy = true
}

func (m *Mac) applyIdleState() {
	if m.inflight != nil || m.sendingAck || m.radio.Transmitting() {
		return
	}
	listen := true
	if m.IdleListen != nil {
		listen = m.IdleListen()
	}
	m.radio.SetListen(listen)
}

// RefreshIdleState re-applies the idle listen policy; a SleepController
// calls this when its schedule changes the desired radio state.
func (m *Mac) RefreshIdleState() { m.applyIdleState() }

// SendJID queues a payload for dst. done (may be nil) is invoked with the
// link-layer outcome. Frames to registered sleepy children are placed on
// the indirect queue instead of the air. jid is the journey packet id of
// the carried datagram (0 for none): simulator metadata that tags the job,
// the radio's in-flight transmission, and the obs events of every backoff,
// retry, and drop, but never appears in wire bytes.
func (m *Mac) SendJID(dst phy.Addr, payload []byte, jid int64, done func(TxStatus)) {
	m.seq++
	job := m.getJob()
	job.frame = phy.Frame{
		Type:       phy.FrameData,
		Seq:        m.seq,
		Dst:        dst,
		Src:        m.radio.Addr(),
		AckRequest: !dst.IsBroadcast(),
		Payload:    payload,
	}
	job.done, job.jid = done, jid
	if p := m.peer(dst); p != nil && p.sleepy {
		job.indirect = true
		p.indirect = append(p.indirect, job)
		return
	}
	m.enqueue(job)
}

// SendDataRequest transmits a DataRequest poll to the parent (leaf side).
// done receives the link outcome and whether the parent's ACK had the
// frame-pending bit set.
func (m *Mac) SendDataRequest(parent phy.Addr, done func(TxStatus, bool)) {
	m.seq++
	job := m.getJob()
	job.frame = phy.Frame{
		Type:       phy.FrameCommand,
		Seq:        m.seq,
		Dst:        parent,
		Src:        m.radio.Addr(),
		Command:    phy.DataRequest,
		AckRequest: true,
	}
	job.pollDone = done
	m.Stats.DataReqSent++
	m.enqueue(job)
}

func (m *Mac) enqueue(job *txJob) {
	switch {
	case m.qHead == nil:
		m.qHead, m.qTail = job, job
	case job.indirect:
		// Indirect frames jump the queue: §9.5 improvement (1),
		// "prioritized indirect messages over the current packet being
		// sent" — here, over queued packets; an in-flight frame finishes.
		job.next, m.qHead = m.qHead, job
	default:
		m.qTail.next, m.qTail = job, job
	}
	m.kick()
}

// kick starts the frame at the head of the queue unless a frame is in
// flight or an ACK is being sent. Each of those ends by kicking again —
// finish and ackDone — so a queued frame starts once the MAC is free.
func (m *Mac) kick() {
	if m.inflight != nil || m.sendingAck || m.qHead == nil {
		return
	}
	job := m.qHead
	if m.qHead = job.next; m.qHead == nil {
		m.qTail = nil
	}
	job.next = nil
	m.inflight = job
	job.attempts = 0
	// Pay the SPI cost of moving the frame into the radio's frame buffer
	// once; link retries reuse the buffer. The radio listens during the
	// load, the CSMA backoff, and the CCA — the fix for deaf listening
	// (§4).
	m.radio.SetListen(true)
	job.wire = job.frame.AppendEncode(job.wireBuf[:0])
	m.arm(stepResume, phy.LoadTime(len(job.wire)))
}

// arm makes k the frame in flight's one pending step, due after d.
func (m *Mac) arm(k stepKind, d sim.Duration) {
	m.checkArm()
	m.next = k
	m.step.Reset(d)
}

// runStep is the step timer's callback: it runs the step armed.
func (m *Mac) runStep() {
	k := m.next
	switch k {
	case stepResume:
		m.startCSMA()
	case stepBackoff:
		m.backoffStep()
	case stepFire:
		m.backoffFire()
	case stepAckTimeout:
		m.radio.SetAckWait(false)
		m.linkRetry(TxNoAck)
	}
	m.checkInvariants(stepNames[k])
}

// awaitingAck reports whether the frame in flight waits for its ACK: the
// step armed is the ACK timeout.
func (m *Mac) awaitingAck() bool {
	return m.next == stepAckTimeout && m.step.Armed()
}

// popFront removes q[0] by copying the tail down, so a sleepy child's
// indirect queue keeps its capacity and a steady stream of frames never
// regrows it (it is a handful of frames long).
func popFront(q []*txJob) []*txJob {
	n := copy(q, q[1:])
	q[n] = nil
	return q[:n]
}

func (m *Mac) startCSMA() {
	job := m.inflight
	job.nb = 0
	// Escalate the starting backoff exponent across link retries: two
	// hidden-terminal victims that collided once spread further apart on
	// each attempt even before the random retry delay d is added.
	job.be = min(minBackoffExp+job.attempts, maxBackoffExp)
	m.radio.SetListen(true)
	m.backoffStep()
}

func (m *Mac) backoffStep() {
	job := m.inflight
	slots := m.eng.Rand().Intn(1 << job.be)
	if tr := m.Trace; tr != nil {
		tr.Emit(obs.Event{T: m.eng.Now(), Kind: obs.MacBackoff, Node: m.radio.ID(), A: int64(job.be), B: int64(slots), J: job.jid})
	}
	m.arm(stepFire, sim.Duration(slots)*phy.UnitBackoff+phy.CCATime)
}

// backoffFire assesses the channel after a backoff+CCA delay.
func (m *Mac) backoffFire() {
	job := m.inflight
	if m.radio.Transmitting() {
		// An ACK we owed someone is on air; retry shortly.
		m.arm(stepBackoff, phy.UnitBackoff)
		return
	}
	if m.radio.ChannelClear() {
		m.transmit()
		return
	}
	job.nb++
	job.be = min(job.be+1, maxBackoffExp)
	if job.nb > maxCSMABackoffs {
		m.Stats.CSMAFailures++
		if tr := m.Trace; tr != nil {
			tr.Emit(obs.Event{T: m.eng.Now(), Kind: obs.MacCSMAFail, Node: m.radio.ID(), A: int64(job.nb), J: job.jid})
		}
		m.linkRetry(TxChannelBusy)
		return
	}
	m.backoffStep()
}

func (m *Mac) transmit() {
	job := m.inflight
	if job.attempts > 0 {
		m.Stats.Retries++
	}
	m.radio.TxJID = job.jid
	m.radio.TransmitLoaded(job.wire)
}

// radioTxDone is the radio's OnTxDone: the ACK being sent, or else the
// frame in flight, has left the air.
func (m *Mac) radioTxDone() {
	switch {
	case m.sendingAck:
		m.ackDone()
	case !m.inflight.frame.AckRequest:
		m.finish(TxOK)
	default:
		m.arm(stepAckTimeout, phy.AckWait)
		m.radio.SetAckWait(true)
	}
	m.checkInvariants("tx done")
}

// stopAckWait ends the wait for an ACK, if there is one, and with it the
// radio's interest in ACK frames: the radio's ACK-wait bit is
// awaitingAck() at all times. Any other step stays armed.
func (m *Mac) stopAckWait() {
	if m.awaitingAck() {
		m.step.Stop()
	}
	m.radio.SetAckWait(false)
}

func (m *Mac) linkRetry(cause TxStatus) {
	job := m.inflight
	job.attempts++
	if job.attempts > m.params.maxRetries {
		m.finish(cause)
		return
	}
	// The paper's hidden-terminal fix: wait uniform[0, d] before retrying
	// so the two colliding parties retransmit at different times.
	var delay sim.Duration
	if d := m.params.RetryDelayMax; d > 0 {
		delay = sim.Duration(m.eng.Rand().Int63n(int64(d) + 1))
	}
	// The retry event is emitted here — where the delay is drawn — rather
	// than at the retransmission itself, so the analyzer can attribute
	// the wait (B) to the journey, and so a retry whose CSMA never
	// completes is still visible.
	if tr := m.Trace; tr != nil {
		tr.Emit(obs.Event{T: m.eng.Now(), Kind: obs.MacRetry, Node: m.radio.ID(), A: int64(job.attempts), B: int64(delay), J: job.jid})
	}
	m.arm(stepResume, delay)
}

func (m *Mac) finish(status TxStatus) {
	m.checkFinish()
	job := m.inflight
	m.inflight = nil
	m.step.Stop() // its ACK timeout, if the ACK came: finish runs from a frame's last step
	m.radio.SetAckWait(false)
	if status == TxOK {
		m.Stats.DataSent++
		if job.indirect {
			m.Stats.IndirectSent++
		}
	} else {
		m.Stats.DataDropped++
		if tr := m.Trace; tr != nil {
			cause := obs.CauseRetriesExhausted
			if status == TxChannelBusy {
				cause = obs.CauseCSMAFail
			}
			tr.Emit(obs.Event{T: m.eng.Now(), Kind: obs.MacDrop, Node: m.radio.ID(), A: int64(status), J: job.jid, Cause: cause})
		}
	}
	m.applyIdleState()
	// Recycle before the callback, so a Send from inside it (the stack's
	// frame pump) reuses this job.
	done, pollDone := job.done, job.pollDone
	m.putJob(job)
	if done != nil {
		done(status)
	} else if pollDone != nil {
		pollDone(status, m.lastAckPending)
	}
	m.kick()
}

// keeps reports whether a received frame is this MAC's business, on its
// header alone: well formed, and addressed to this node or to broadcast
// or — ACKs carry no address — an ACK while one is awaited. It is the
// decision the radio's address filter anticipates
// (FuzzFrameDstAgreesWithMac holds the two equal on every input).
func (m *Mac) keeps(data []byte) bool {
	t, dst, err := phy.PeekHeader(data)
	switch {
	case err != nil:
		return false
	case t == phy.FrameAck:
		return m.awaitingAck()
	}
	return dst == m.radio.Addr() || dst.IsBroadcast()
}

// radioReceive is the radio's OnReceive; the invariants build checks the
// MAC after each frame.
func (m *Mac) radioReceive(data []byte) {
	m.receive(data)
	m.checkInvariants("receive")
}

func (m *Mac) receive(data []byte) {
	// Frames for someone else are dropped on the header alone, before the
	// full decode. (A malformed frame fails the same checks in either
	// place.) The radio's address filter normally withholds them; the
	// check stays because the filter is a shortcut, not the authority: a
	// promiscuous radio hands up everything it decodes.
	if !m.keeps(data) {
		return
	}
	f := &m.rxFrame
	if err := phy.DecodeFrameInto(f, data); err != nil {
		return
	}
	// The journey id rides beside the wire bytes, not in them: decode
	// zeroed f.J, the radio holds the id of the frame being delivered.
	f.J = m.radio.RxJID
	if f.Type == phy.FrameAck {
		m.handleAck(f)
		return
	}
	p := m.addPeer(f.Src)
	// Generate the immediate ACK first (after turnaround), then deliver.
	// Its pending bit says frames are held for the sender, which only a
	// sleepy child can have.
	if f.AckRequest {
		m.sendAck(f.Seq, len(p.indirect) > 0)
	}
	// MAC-level duplicate suppression (a lost ACK causes the peer to
	// retransmit a frame we already accepted).
	if p.seen && p.lastSeq == f.Seq {
		m.Stats.Duplicates++
		return
	}
	p.lastSeq, p.seen = f.Seq, true

	if f.Type == phy.FrameCommand && f.Command == phy.DataRequest {
		m.serveDataRequest(p)
		return
	}
	if m.OnReceive != nil {
		m.OnReceive(f)
	}
}

func (m *Mac) handleAck(f *phy.Frame) {
	job := m.inflight
	if job == nil || !m.awaitingAck() || f.Seq != job.frame.Seq {
		return
	}
	m.lastAckPending = f.FramePending
	m.finish(TxOK)
}

// ackDone runs when the ACK being sent has left the air.
func (m *Mac) ackDone() {
	m.sendingAck = false
	m.Stats.AcksSent++
	if m.ackWasWaiting {
		// Our own frame lost its ACK window to this ACK; retry it.
		m.linkRetry(TxNoAck)
		return
	}
	m.applyIdleState()
	m.kick()
}

func (m *Mac) sendAck(seq uint8, pending bool) {
	if m.radio.Transmitting() {
		return // cannot ACK while our own frame is on air (rare)
	}
	// If we were awaiting a link ACK, turning the radio around to
	// transmit forfeits it (half-duplex); the retry path recovers. A job
	// that is merely loading or in CSMA backoff is NOT "waiting" — its
	// step stays armed.
	m.ackWasWaiting = m.awaitingAck()
	m.stopAckWait()
	m.sendingAck = true
	// ACKs are generated from radio-internal state: no SPI load, just the
	// turnaround (inside TransmitLoaded). They carry no journey id.
	m.radio.TxJID = 0
	m.radio.TransmitLoaded(phy.AckFor(seq, pending).AppendEncode(m.ackBuf[:0]))
}

// serveDataRequest moves the next indirect frame for child (if any) to
// the head of the transmit queue. If more frames remain queued, the
// frame-pending bit is set so the child keeps listening (Appendix C's
// burst-delivery improvement, after [37]).
func (m *Mac) serveDataRequest(child *peer) {
	if len(child.indirect) == 0 {
		return
	}
	job := child.indirect[0]
	child.indirect = popFront(child.indirect)
	job.frame.FramePending = len(child.indirect) > 0
	m.enqueue(job)
}
