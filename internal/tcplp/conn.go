package tcplp

import (
	"errors"
	"fmt"

	"tcplp/internal/ip6"
	"tcplp/internal/obs"
	"tcplp/internal/sim"
	"tcplp/internal/tcplp/cc"
)

// State is a TCP connection state (RFC 793 §3.2).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynReceived
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state%d", int(s))
}

// Connection errors.
var (
	ErrConnReset     = errors.New("tcplp: connection reset by peer")
	ErrConnTimeout   = errors.New("tcplp: retransmission limit exceeded")
	ErrConnRefused   = errors.New("tcplp: connection refused")
	ErrConnClosed    = errors.New("tcplp: connection closed")
	ErrWriteAfterFin = errors.New("tcplp: write after Close")
)

// Config holds the per-connection tuning knobs — each Table 1 feature can
// be switched off for the ablation benches. The memory structures are
// not knobs: every connection sends from a CopySendBuffer and receives
// into a RecvBuffer (§4.3); the alternatives they were chosen over run
// only in the ablation (ablation_test.go).
type Config struct {
	// MSS is the maximum TCP payload per segment we advertise. The §6.1
	// experiments set it so a segment spans a chosen number of frames.
	MSS int
	// SendBufSize / RecvBufSize are the §6.2 window knobs; the receive
	// buffer size bounds the advertised window.
	SendBufSize int
	RecvBufSize int

	UseSACK        bool
	UseTimestamps  bool
	UseDelayedAcks bool
	UseECN         bool

	// RTOMin floors the retransmission timeout (the ceiling is
	// DefaultRTOMax for every connection).
	RTOMin sim.Duration
	// MaxRetransmits is how many consecutive RTOs abort the connection
	// (paper §9.4: TCP performs up to 12 retransmissions).
	MaxRetransmits int
	// InitialCwndSegs is the initial window in segments (RFC 6928: 10).
	InitialCwndSegs int
	// Variant selects the congestion-control algorithm
	// (internal/tcplp/cc); empty selects NewReno. It alone decides
	// whether the connection paces: a variant implementing cc.Pacer does.
	Variant cc.Variant
}

// Timers every connection shares. Nagle's algorithm is always on.
const (
	// delayedAckTimeout bounds how long a delayed ACK waits for a second
	// segment.
	delayedAckTimeout = 100 * sim.Millisecond
	// maxSegmentLifetime sets the TIME_WAIT duration (twice this).
	maxSegmentLifetime = 5 * sim.Second
)

// DefaultConfig mirrors the paper's standard configuration: MSS of five
// frames' worth of payload (≈408-460 B, set by the stack), 4-segment
// buffers, and every Table 1 feature on.
func DefaultConfig() Config {
	return Config{
		MSS:             408,
		SendBufSize:     4 * 462,
		RecvBufSize:     4 * 462,
		UseSACK:         true,
		UseTimestamps:   true,
		UseDelayedAcks:  true,
		RTOMin:          DefaultRTOMin,
		MaxRetransmits:  12,
		InitialCwndSegs: 10,
		Variant:         cc.NewReno,
	}
}

// ConnStats counts per-connection protocol events; the Fig. 7 and Fig. 9
// experiments read these.
type ConnStats struct {
	SegsSent, SegsRecv     uint64
	BytesSent, BytesRecv   uint64 // payload bytes, including retransmits
	Retransmits            uint64 // data segments retransmitted (any cause)
	Timeouts               uint64 // RTO firings
	FastRetransmits        uint64
	SACKRetransmits        uint64
	DupAcksIn              uint64
	DelayedAcks            uint64
	AcksSent               uint64
	ZeroWindowProbes       uint64
	ChallengeAcks          uint64
	PredictedAcks          uint64 // header-prediction fast path (pure ACK)
	PredictedData          uint64 // header-prediction fast path (in-order data)
	ECNCongestionResponses uint64
	OutOfOrderSegs         uint64
	DupSegs                uint64
}

// Conn is a TCP connection endpoint ("active socket" in the paper's
// active/passive split, §4.1). All methods must be called from the
// simulation goroutine.
type Conn struct {
	stack *Stack
	cfg   Config
	state State

	localAddr, remoteAddr ip6.Addr
	localPort, remotePort uint16

	// Send state. (Words before half-words: with both buffers inside,
	// Conn plus the allocator's header must still fit the 768-byte class.)
	sndBuf    CopySendBuffer
	sndWnd    int
	maxSndWnd int
	iss       Seq
	sndUna    Seq
	sndNxt    Seq
	sndMax    Seq // highest sequence sent + 1
	queuedEnd Seq // stream position after the last byte queued by the app
	sndWL1    Seq
	sndWL2    Seq
	finQueued bool
	probing   bool // inside onPersist's forced send
	// inRecovery (recovery, below) and retxKind (timers) sit here beside
	// the send flags, where they cost no padding.
	inRecovery bool
	retxKind   retxKind

	// Congestion control: cong owns cwnd/ssthresh (internal/tcplp/cc);
	// the fields below are the recovery machinery shared by all variants.
	cong        cc.Algorithm
	pacer       cc.Pacer // cong if it paces, else nil
	dupAcks     int
	recover     Seq
	sackRtxNext Seq // scan cursor for SACK hole retransmissions
	sb          scoreboard
	rtxPipe     int // retransmitted bytes counted into the pipe estimate

	// Timers. retx is one slot for the retransmission, persist and 2MSL
	// timers, which never run together (retxKind says which it holds);
	// the delayed ACK and pacing run beside them.
	retx         *sim.Timer
	rexmtShift   int
	persistShift int
	delAckTimer  *sim.Timer

	// Pacing (only active when the cc variant implements cc.Pacer):
	// paceNext is the earliest time the next data segment may be
	// released; paceTimer re-runs output at that time when the window
	// would otherwise burst.
	paceTimer *sim.Timer
	paceNext  sim.Time

	// RTT measurement.
	rtt        *rttEstimator
	rttPending bool
	rttSeq     Seq
	rttTime    sim.Time
	tsRecent   uint32
	tsEcho     bool // tsRecent valid

	// Peer capabilities (negotiated on SYN).
	peerMSS  int
	peerSACK bool
	peerTS   bool
	ecnOn    bool
	// expecting: counted in the stack's expecting (no padding here).
	expecting bool

	// Receive state.
	rcvQ        RecvBuffer
	irs         Seq
	rcvNxt      Seq
	finReceived bool
	finSeq      Seq
	segsToAck   int // full segments received since last ACK (delack)
	lastWndAdv  int // window advertised in the last ACK sent
	lastAckSeq  Seq // rcv.nxt when the last ACK was sent (RFC 7323 Last.ACK.sent)

	// ECN state.
	eceToSend  bool // receiver side: echo congestion until CWR arrives
	cwrToSend  bool // sender side: signal cwnd reduction on next data
	ecnRecover Seq  // one cwnd reduction per window of data

	closeErr error

	// OnReadable fires when new in-sequence data (or the peer's FIN)
	// becomes available.
	OnReadable func()
	// OnWritable fires when send-buffer space frees up.
	OnWritable func()
	// OnEstablished fires when the handshake completes.
	OnEstablished func()
	// OnClosed fires once, when the connection fully terminates.
	OnClosed func(err error)

	// TraceCwnd, if set, is invoked whenever cwnd or ssthresh changes
	// (the Fig. 7a instrument).
	TraceCwnd func(now sim.Time, cwnd, ssthresh int)
	// TraceRTT, if set, receives every RTT sample fed to the estimator
	// (the Fig. 13 instrument).
	TraceRTT func(sample sim.Duration)

	Stats ConnStats
}

func newConn(s *Stack, cfg Config) *Conn {
	alg, err := cc.New(cfg.Variant, cc.Params{
		InitialWindow: cfg.InitialCwndSegs * cfg.MSS,
	})
	if err != nil {
		panic(fmt.Sprintf("tcplp: %v", err))
	}
	c := &Conn{
		stack: s,
		cfg:   cfg,
		cong:  alg,
		state: StateClosed,
		rtt:   newRTTEstimator(cfg.RTOMin),
		// Both buffers live in the Conn by value: one allocation for the
		// connection, then one each for the byte arrays and the bitmap,
		// made when the first byte needs them.
		sndBuf: *NewCopySendBuffer(cfg.SendBufSize),
		rcvQ:   *NewRecvBuffer(cfg.RecvBufSize),
	}
	c.retx = sim.NewTimer(s.eng, c.onRetx)
	c.delAckTimer = sim.NewTimer(s.eng, c.onDelAck)
	c.paceTimer = sim.NewTimer(s.eng, c.output)
	c.peerMSS = 536
	// Asked once here, not per send: a failing assertion to an interface
	// goes through the runtime, whose per-call-site cache allocates when
	// it first records the type, at a random call (about 1 in 1024).
	c.pacer, _ = alg.(cc.Pacer)
	return c
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// RemoteAddr returns the peer address and port.
func (c *Conn) RemoteAddr() (ip6.Addr, uint16) { return c.remoteAddr, c.remotePort }

// SRTT exposes the smoothed RTT estimate (cross-layer hint, §10).
func (c *Conn) SRTT() sim.Duration { return c.rtt.SRTT() }

// RTO exposes the current retransmission timeout.
func (c *Conn) RTO() sim.Duration { return c.rtt.RTO() }

// Write queues data for transmission, returning how many bytes fit in
// the send buffer. It never blocks; watch OnWritable for free space.
func (c *Conn) Write(p []byte) (int, error) {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynReceived:
	default:
		return 0, ErrConnClosed
	}
	if c.finQueued {
		return 0, ErrWriteAfterFin
	}
	made := c.sndBuf.made()
	n := c.sndBuf.Write(p)
	c.stack.Stats.BufBytes += uint64(c.sndBuf.made() - made)
	c.queuedEnd = c.queuedEnd.Add(n)
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.output()
	}
	return n, nil
}

// BufferedBytes returns bytes written but not yet acknowledged end-to-end
// (still occupying the send buffer).
func (c *Conn) BufferedBytes() int { return c.sndBuf.Len() }

// Read copies available in-sequence bytes into p. n == 0 with nil error
// means no data yet; io semantics of EOF are exposed via EOF().
func (c *Conn) Read(p []byte) int {
	n := c.rcvQ.Read(p)
	if n > 0 {
		c.considerWindowUpdate()
	}
	return n
}

// EOF reports whether the peer's FIN has been received and all data
// consumed.
func (c *Conn) EOF() bool { return c.finReceived && c.rcvQ.Readable() == 0 }

// Close queues a FIN after any buffered data (graceful close).
func (c *Conn) Close() {
	if c.finQueued {
		return
	}
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynReceived:
		c.finQueued = true
		c.output()
	case StateSynSent, StateClosed:
		c.teardown(nil)
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == StateClosed {
		return
	}
	c.sendRST(c.sndNxt)
	c.teardown(ErrConnClosed)
}

// finAcked reports whether the peer acknowledged our FIN.
func (c *Conn) finAcked() bool { return c.finQueued && c.sndUna.GT(c.queuedEnd) }

func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	c.emit(obs.TCPState, int64(c.state), int64(s), 0)
	c.state = s
}

// emit records an obs event when the owning stack is traced.
func (c *Conn) emit(k obs.Kind, a, b int64, n int) {
	c.emitJ(k, 0, a, b, n)
}

// emitJ is emit with a journey packet id attached.
func (c *Conn) emitJ(k obs.Kind, j, a, b int64, n int) {
	if tr := c.stack.Trace; tr != nil {
		tr.Emit(obs.Event{T: c.stack.eng.Now(), Kind: k, Node: c.stack.TraceNode, A: a, B: b, Len: n, J: j})
	}
}

// teardown finalizes the connection and releases stack state.
func (c *Conn) teardown(err error) {
	if c.state == StateClosed && c.closeErr != nil {
		return
	}
	c.setState(StateClosed)
	c.closeErr = err
	c.retx.Stop()
	c.delAckTimer.Stop()
	c.paceTimer.Stop()
	c.stack.removeConn(c)
	c.setExpecting(false)
	if c.OnClosed != nil {
		cb := c.OnClosed
		c.OnClosed = nil
		cb(err)
	}
}

// setExpecting moves the connection in or out of its stack's count of
// connections with unACKed data; OnExpectingChange fires on 0↔1 (§9.2).
func (c *Conn) setExpecting(on bool) {
	if c.expecting == on {
		return
	}
	c.expecting = on
	s := c.stack
	if on {
		s.expecting++
	} else {
		s.expecting--
	}
	if s.expecting == boolInt(on) && s.OnExpectingChange != nil {
		s.OnExpectingChange(on)
	}
}

func (c *Conn) traceCwnd() {
	if c.TraceCwnd != nil {
		c.TraceCwnd(c.stack.eng.Now(), c.cong.Cwnd(), c.cong.Ssthresh())
	}
	c.emit(obs.TCPCwnd, int64(c.cong.Cwnd()), int64(c.cong.Ssthresh()), 0)
}

// now is the current simulation time (congestion-control hook argument).
func (c *Conn) now() sim.Time { return c.stack.eng.Now() }

// considerWindowUpdate sends a window-update ACK when the app's reads
// reopen at least two segments (or half the buffer) of window that the
// peer believes closed — the receiver side of silly-window avoidance.
func (c *Conn) considerWindowUpdate() {
	if c.state != StateEstablished && c.state != StateFinWait1 && c.state != StateFinWait2 {
		return
	}
	win := c.rcvQ.Window()
	gain := win - c.lastWndAdv
	if gain >= 2*c.cfg.MSS || gain*2 >= c.rcvQ.Capacity() {
		c.sendAck()
	}
}
