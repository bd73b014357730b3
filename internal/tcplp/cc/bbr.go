package cc

import "tcplp/internal/sim"

// BBR parameters. The gains and windows follow the BBR v1 draft
// (startup gain 2/ln 2, eight-phase probe-bw cycle, 10-second min-RTT
// window, 200 ms probe-rtt floor), with the filters sized for LLN
// operating points: a handful of segments in flight and RTTs from tens
// of milliseconds to seconds.
const (
	bbrHighGain       = 2.885 // 2/ln(2): fills the pipe in log2(BDP) RTTs
	bbrDrainGain      = 1.0 / bbrHighGain
	bbrCwndGain       = 2.0 // steady-state cwnd = 2·BDP (absorbs delayed ACKs)
	bbrBwWindowRounds = 10  // windowed-max bandwidth filter length, in rounds
	bbrFullBwThresh   = 1.25
	bbrFullBwRounds   = 3
	bbrMinRTTWindow   = 10 * sim.Second
	bbrProbeRTTTime   = 200 * sim.Millisecond
)

// bbrGainCycle is the probe-bw pacing-gain sequence: probe above the
// estimate for one RTT, drain the surplus, then cruise for six.
var bbrGainCycle = [...]float64{1.25, 0.75, 1, 1, 1, 1, 1, 1}

// bbrMode is the BBR state machine phase.
type bbrMode int

const (
	bbrStartup bbrMode = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (m bbrMode) String() string {
	switch m {
	case bbrStartup:
		return "startup"
	case bbrDrain:
		return "drain"
	case bbrProbeBW:
		return "probe-bw"
	case bbrProbeRTT:
		return "probe-rtt"
	}
	return "?"
}

// bbr is model-based congestion control in the style of BBR: instead of
// reacting to loss, it maintains an explicit model of the path — the
// bottleneck bandwidth (windowed max of per-round delivery-rate
// samples, reusing the Westwood+ once-per-RTT sampling discipline) and
// the propagation delay (windowed min RTT) — and derives both the
// congestion window (cwnd_gain · BDP) and a pacing rate
// (pacing_gain · BtlBw) from it. A gain state machine cycles through
// startup, drain, probe-bw, and probe-rtt.
//
// Simplifications versus the BBR draft, acceptable at LLN scale: drain
// is time-boxed to one min-RTT (the Algorithm hooks do not carry the
// in-flight count), RTT samples are the connection's smoothed RTT
// rather than per-segment ACK timings, and loss still collapses the
// window through the shared recovery machinery — with ssthresh pinned
// to the model's BDP, so recovery returns to the pipe size, not to a
// blind half-flight.
type bbr struct {
	window
	mode       bbrMode
	pacingGain float64
	cwndGain   float64

	// Delivery-rate sampling: bytes acked since the last sample, taken
	// once per RTT to stay robust to ACK compression.
	bkBytes  int
	lastSamp sim.Time

	// Windowed-max bandwidth filter over the last bbrBwWindowRounds
	// sample rounds (bytes/second).
	bwRing [bbrBwWindowRounds]float64
	round  int

	// Windowed-min RTT: the probe-rtt phase re-floors it every
	// bbrMinRTTWindow so a route change cannot pin a stale minimum.
	minRTT      sim.Duration
	minRTTStamp sim.Time

	// Startup full-pipe detection: bandwidth stopped growing.
	fullBw      float64
	fullBwCount int
	fullPipe    bool

	drainUntil  sim.Time
	cycleStamp  sim.Time
	cycleIdx    int
	probeRTTEnd sim.Time
	probeMin    sim.Duration
	priorCwnd   int
}

func newBBR(p Params) *bbr {
	b := &bbr{}
	b.p = p
	b.policy = b
	return b
}

func (b *bbr) Init(now sim.Time) {
	b.window.Init(now)
	b.mode = bbrStartup
	b.pacingGain = bbrHighGain
	b.cwndGain = bbrHighGain
	b.bkBytes = 0
	b.lastSamp = now
	b.bwRing = [bbrBwWindowRounds]float64{}
	b.round = 0
	b.minRTT = 0
	b.minRTTStamp = now
	b.fullBw = 0
	b.fullBwCount = 0
	b.fullPipe = false
	b.cycleIdx = 0
	b.cycleStamp = now
	b.probeMin = 0
	b.priorCwnd = 0
}

// btlBw is the bottleneck-bandwidth estimate: the windowed max of the
// delivery-rate samples (0 until the first sample completes).
func (b *bbr) btlBw() float64 {
	bw := 0.0
	for _, s := range b.bwRing {
		if s > bw {
			bw = s
		}
	}
	return bw
}

// bdp is the model's bandwidth-delay product in bytes (0 until both
// filters have a value).
func (b *bbr) bdp() int {
	if b.minRTT <= 0 {
		return 0
	}
	return int(b.btlBw() * b.minRTT.Seconds())
}

// account folds acked bytes into the model: it refreshes the min-RTT
// filter and, once per RTT, completes a delivery-rate sample round.
func (b *bbr) account(now sim.Time, acked int, srtt sim.Duration) {
	if srtt > 0 && (b.minRTT == 0 || srtt <= b.minRTT) {
		// <= and not <: a steady flow at the floor keeps refreshing the
		// stamp, so probe-rtt only fires when queues inflate the RTT.
		b.minRTT = srtt
		b.minRTTStamp = now
	}
	b.bkBytes += acked
	if srtt <= 0 {
		return
	}
	interval := now.Sub(b.lastSamp)
	if interval > 8*srtt {
		// Idle gap (duty-cycle sleep, blackout): restart the sampling
		// window rather than injecting a near-zero rate sample.
		b.bkBytes = acked
		b.lastSamp = now
		return
	}
	if interval < srtt {
		return
	}
	sample := float64(b.bkBytes) / interval.Seconds()
	b.round++
	b.bwRing[b.round%bbrBwWindowRounds] = sample
	b.bkBytes = 0
	b.lastSamp = now
	b.onRound(now)
}

// onRound runs once per completed bandwidth-sample round: startup's
// full-pipe detection lives here, since "bandwidth stopped growing" is
// a per-round judgement.
func (b *bbr) onRound(now sim.Time) {
	if b.mode != bbrStartup {
		return
	}
	bw := b.btlBw()
	if b.fullBw == 0 || bw >= b.fullBw*bbrFullBwThresh {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= bbrFullBwRounds {
		b.fullPipe = true
		b.enterDrain(now)
	}
}

func (b *bbr) enterDrain(now sim.Time) {
	b.mode = bbrDrain
	b.pacingGain = bbrDrainGain
	d := b.minRTT
	if d <= 0 {
		d = 100 * sim.Millisecond
	}
	b.drainUntil = now.Add(d)
}

func (b *bbr) enterProbeBW(now sim.Time) {
	b.mode = bbrProbeBW
	b.cwndGain = bbrCwndGain
	// Start in a cruise phase (gain 1), not the 1.25 probe, so the
	// transition out of drain does not immediately re-inflate the queue.
	b.cycleIdx = 2
	b.cycleStamp = now
	b.pacingGain = bbrGainCycle[b.cycleIdx]
}

func (b *bbr) enterProbeRTT(now sim.Time, mss int) {
	b.mode = bbrProbeRTT
	b.pacingGain = 1
	b.cwndGain = 1
	b.priorCwnd = b.cwnd
	if b.cwnd > 4*mss {
		b.cwnd = 4 * mss
	}
	b.probeRTTEnd = now.Add(bbrProbeRTTTime)
	b.probeMin = 0
}

func (b *bbr) exitProbeRTT(now sim.Time) {
	if b.probeMin > 0 {
		// The windowed min expires here: the lowest RTT seen during the
		// probe becomes the new floor, letting the model track a path
		// whose propagation delay genuinely rose.
		b.minRTT = b.probeMin
	}
	b.minRTTStamp = now
	if b.cwnd < b.priorCwnd {
		b.cwnd = b.priorCwnd
	}
	if b.fullPipe {
		b.enterProbeBW(now)
	} else {
		b.mode = bbrStartup
		b.pacingGain = bbrHighGain
		b.cwndGain = bbrHighGain
	}
}

// advance runs the gain state machine on each ACK.
func (b *bbr) advance(now sim.Time, mss int, srtt sim.Duration) {
	switch b.mode {
	case bbrDrain:
		if now >= b.drainUntil {
			b.enterProbeBW(now)
		}
	case bbrProbeBW:
		if b.minRTT > 0 && now.Sub(b.cycleStamp) >= b.minRTT {
			b.cycleIdx = (b.cycleIdx + 1) % len(bbrGainCycle)
			b.cycleStamp = now
			b.pacingGain = bbrGainCycle[b.cycleIdx]
		}
	case bbrProbeRTT:
		if srtt > 0 && (b.probeMin == 0 || srtt < b.probeMin) {
			b.probeMin = srtt
		}
		if now >= b.probeRTTEnd {
			b.exitProbeRTT(now)
		}
		return
	}
	if b.minRTT > 0 && now.Sub(b.minRTTStamp) > bbrMinRTTWindow {
		b.enterProbeRTT(now, mss)
	}
}

// cwndTarget is cwnd_gain · BDP, floored at four segments (the draft's
// minimum pipe to keep delayed ACKs and probe-rtt from starving the
// flow); 0 until the model has both a bandwidth and an RTT.
func (b *bbr) cwndTarget(mss int) int {
	bdp := b.bdp()
	if bdp <= 0 {
		return 0
	}
	target := int(b.cwndGain * float64(bdp))
	if floor := 4 * mss; target < floor {
		target = floor
	}
	return target
}

func (b *bbr) OnAck(now sim.Time, mss, acked int, srtt sim.Duration) {
	b.account(now, acked, srtt)
	b.advance(now, mss, srtt)
	if b.mode == bbrProbeRTT {
		// Hold the window at the probe floor; growth resumes on exit.
		return
	}
	target := b.cwndTarget(mss)
	if target == 0 || b.cwnd < target {
		b.cwnd += min(acked, mss)
		if target > 0 && b.cwnd > target {
			b.cwnd = target
		}
	}
	b.cwnd = min(b.cwnd, maxWindow)
}

// Recovery ACKs still carry delivery-rate information; keep the model
// fed so the post-recovery window reflects reality.
func (b *bbr) OnPartialAck(now sim.Time, mss, acked int, srtt sim.Duration) {
	b.account(now, acked, srtt)
	b.window.OnPartialAck(now, mss, acked, srtt)
}

func (b *bbr) OnExitRecovery(now sim.Time, mss, acked, flight int, srtt sim.Duration) {
	b.account(now, acked, srtt)
	b.window.OnExitRecovery(now, mss, acked, flight, srtt)
}

// ssthreshOnLoss pins the post-loss threshold to the model's BDP — the
// pipe the path actually sustains — rather than halving the flight.
// Before the model exists (losses in the first RTTs), fall back to the
// Reno decrease. Like Westwood+, a congestion signal never raises the
// threshold above the running window: after an RTO collapse the
// windowed-max filter still remembers pre-loss bandwidth and would
// otherwise re-flood the path.
func (b *bbr) ssthreshOnLoss(_ sim.Time, mss, flight int) int {
	bdp := b.bdp()
	if bdp <= 0 {
		return max(flight/2, 2*mss)
	}
	if bdp > b.cwnd {
		bdp = b.cwnd
	}
	return max(bdp, 2*mss)
}

// PacingRate implements Pacer: pacing_gain · BtlBw once the model has a
// bandwidth estimate; before that, the configured window over the
// smoothed RTT (the draft's initial rate), so pacing is active from the
// very first data segment. The rate never drops below two segments per
// second, bounding the per-segment release delay even if the estimate
// craters.
func (b *bbr) PacingRate(mss int, srtt sim.Duration) float64 {
	bw := b.btlBw()
	if bw == 0 {
		if srtt <= 0 {
			return 0
		}
		bw = float64(b.cwnd) / srtt.Seconds()
	}
	rate := b.pacingGain * bw
	if floor := float64(2 * mss); rate < floor {
		rate = floor
	}
	return rate
}
