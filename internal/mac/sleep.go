package mac

import (
	"tcplp/internal/phy"
	"tcplp/internal/sim"
)

// dataWaitTimeout is how long a sleepy child listens for an indirect
// frame after an ACK with the pending bit set.
const dataWaitTimeout = 100 * sim.Millisecond

// adaptiveMin and adaptiveMax bound the adaptive sleep interval
// (Appendix C: 20 ms / 5 s).
const (
	adaptiveMin = 20 * sim.Millisecond
	adaptiveMax = 5 * sim.Second
)

// SleepController implements the listen-after-send duty cycling of a
// Thread sleepy end device (§3.2) and the paper's two refinements:
//
//   - Fast polling while a transport-layer response is expected (§9.2):
//     the data-request interval drops to FastInterval when the transport
//     marks itself "expecting", and returns to SleepInterval otherwise.
//
//   - Trickle-style adaptive sleep interval (Appendix C): on receiving a
//     downstream packet the interval collapses to adaptiveMin; each poll
//     that yields nothing doubles it, clamped at adaptiveMax.
//
// The controller owns the leaf radio's idle state: the radio sleeps
// except while transmitting, polling, or in the post-poll wakeup window.
type SleepController struct {
	eng    *sim.Engine
	mac    *Mac
	parent phy.Addr

	// SleepInterval is the base data-request period (Thread default: 4
	// minutes).
	SleepInterval sim.Duration
	// FastInterval is the poll period while a response is expected
	// (paper: 100 ms). Zero turns the §9.2 hint off: SetExpecting is then
	// ignored (Appendix C studies fixed intervals without it).
	FastInterval sim.Duration

	// Adaptive enables the Trickle-controlled interval of Appendix C.
	Adaptive bool

	current   sim.Duration // adaptive interval state
	expecting int          // >0 while transport expects inbound traffic
	awake     bool         // inside a wakeup (receive) window
	pollTimer sim.Timer
	waitTimer sim.Timer
	pollDone  func(TxStatus, bool) // prebuilt: every poll shares it
	started   bool

	// Polls counts data requests issued; Wakeups counts pending-bit
	// windows entered.
	Polls, Wakeups uint64
}

// NewSleepController attaches duty cycling to a leaf MAC. The MAC's idle
// listen policy is taken over by the controller.
func NewSleepController(eng *sim.Engine, m *Mac, parent phy.Addr) *SleepController {
	sc := &SleepController{
		eng:           eng,
		mac:           m,
		parent:        parent,
		SleepInterval: 4 * sim.Minute,
		FastInterval:  100 * sim.Millisecond,
	}
	sc.pollTimer.Init(eng, sc.poll)
	sc.waitTimer.Init(eng, sc.wakeupTimeout)
	sc.pollDone = sc.afterPoll
	m.IdleListen = func() bool { return sc.awake }
	return sc
}

// Start begins the poll/sleep cycle.
func (sc *SleepController) Start() {
	if sc.started {
		return
	}
	sc.started = true
	sc.current = sc.interval()
	sc.mac.RefreshIdleState()
	sc.pollTimer.Reset(sc.current)
}

// SetExpecting tells the controller whether the transport layer is
// waiting for a response (unACKed TCP data in flight, outstanding CoAP
// confirmable, ...). While expecting, polls run at FastInterval.
func (sc *SleepController) SetExpecting(on bool) {
	if sc.FastInterval == 0 {
		return
	}
	if on {
		sc.expecting++
		if sc.expecting == 1 && sc.started {
			sc.pollTimer.Reset(sc.interval())
		}
		return
	}
	if sc.expecting > 0 {
		sc.expecting--
	}
}

// interval returns the next poll delay under the current policy.
func (sc *SleepController) interval() sim.Duration {
	if sc.expecting > 0 {
		return sc.FastInterval
	}
	if sc.Adaptive {
		sc.current = min(max(sc.current, adaptiveMin), adaptiveMax)
		return sc.current
	}
	return sc.SleepInterval
}

func (sc *SleepController) poll() {
	sc.Polls++
	sc.mac.SendDataRequest(sc.parent, sc.pollDone)
}

func (sc *SleepController) afterPoll(status TxStatus, pending bool) {
	// A lost poll is treated as an empty one.
	if status == TxOK && pending {
		sc.enterWakeup()
		return
	}
	sc.afterEmptyPoll()
}

func (sc *SleepController) afterEmptyPoll() {
	if sc.Adaptive && sc.expecting == 0 {
		sc.current = min(sc.current*2, adaptiveMax)
	}
	sc.scheduleNext()
}

func (sc *SleepController) scheduleNext() {
	sc.awake = false
	sc.mac.RefreshIdleState()
	sc.pollTimer.Reset(sc.interval())
}

func (sc *SleepController) enterWakeup() {
	sc.Wakeups++
	sc.awake = true
	sc.mac.RefreshIdleState()
	sc.waitTimer.Reset(dataWaitTimeout)
}

// FrameDelivered is called by the MAC owner for each downstream frame
// received during a wakeup window; pending indicates the parent has more
// queued (frame-pending bit), in which case the window extends.
func (sc *SleepController) FrameDelivered(pending bool) {
	if sc.Adaptive {
		sc.current = adaptiveMin
	}
	if !sc.awake {
		return
	}
	if pending {
		sc.waitTimer.Reset(dataWaitTimeout)
		return
	}
	sc.waitTimer.Stop()
	sc.scheduleNext()
}

func (sc *SleepController) wakeupTimeout() {
	sc.scheduleNext()
}
