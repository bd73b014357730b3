package cc

import (
	"reflect"
	"testing"

	"tcplp/internal/sim"
)

const (
	mss = 408
	iw  = 10 * mss
)

func mk(t *testing.T, v Variant) Algorithm {
	t.Helper()
	a, err := New(v, Params{InitialWindow: iw})
	if err != nil {
		t.Fatal(err)
	}
	a.Init(0)
	return a
}

func TestParse(t *testing.T) {
	cases := map[string]Variant{
		"": NewReno, "reno": NewReno, "NewReno": NewReno, "new-reno": NewReno,
		"cubic": Cubic, "CUBIC": Cubic,
		"westwood": Westwood, "westwood+": Westwood, "WestwoodPlus": Westwood,
		"bbr": Bbr, "BBR": Bbr,
		"vegas": Vegas, "Vegas": Vegas,
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil || got != want {
			t.Fatalf("Parse(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := Parse("tahoe"); err == nil {
		t.Fatal("Parse accepted an unknown variant")
	}
	if _, err := New("tahoe", Params{InitialWindow: iw}); err == nil {
		t.Fatal("New accepted an unknown variant")
	}
}

// registryTypes is the algorithm each variant must build.
var registryTypes = map[Variant]Algorithm{
	NewReno:  (*newReno)(nil),
	Cubic:    (*cubic)(nil),
	Westwood: (*westwood)(nil),
	Bbr:      (*bbr)(nil),
	Vegas:    (*vegas)(nil),
}

func TestVariantsRoundTrip(t *testing.T) {
	vs := Variants()
	if len(vs) != len(registry) {
		t.Fatalf("Variants() lists %d algorithms, registry has %d", len(vs), len(registry))
	}
	for _, v := range vs {
		if !Valid(v) {
			t.Fatalf("Variants() lists %v but Valid rejects it", v)
		}
		if a, want := mk(t, v), registryTypes[v]; reflect.TypeOf(a) != reflect.TypeOf(want) {
			t.Fatalf("New(%v) built a %T, want a %T", v, a, want)
		}
		if p, err := Parse(string(v)); err != nil || p != v {
			t.Fatalf("Parse(%v) = %v, %v", v, p, err)
		}
	}
}

// Slow start: every variant doubles per window of full-segment ACKs
// below ssthresh, starting from the configured initial window.
func TestSlowStartGrowth(t *testing.T) {
	for _, v := range Variants() {
		a := mk(t, v)
		if a.Cwnd() != iw {
			t.Fatalf("%v: initial cwnd = %d, want %d", v, a.Cwnd(), iw)
		}
		if a.Ssthresh() < 1<<29 {
			t.Fatalf("%v: initial ssthresh = %d, want effectively infinite", v, a.Ssthresh())
		}
		before := a.Cwnd()
		acks := before / mss
		now := sim.Time(0)
		for i := 0; i < acks; i++ {
			now = now.Add(10 * sim.Millisecond)
			a.OnAck(now, mss, mss, 100*sim.Millisecond)
		}
		if a.Cwnd() != 2*before {
			t.Fatalf("%v: one window of ACKs grew cwnd %d → %d, want doubling", v, before, a.Cwnd())
		}
	}
}

// Triple-dupack: NewReno halves the flight; every variant floors
// ssthresh at 2 MSS and applies the 3-segment recovery entry.
func TestTripleDupAckDecrease(t *testing.T) {
	for _, v := range Variants() {
		a := mk(t, v)
		flight := 8 * mss
		a.OnDupAck(sim.Time(sim.Second), mss, flight)
		if v == NewReno {
			if want := flight / 2; a.Ssthresh() != want {
				t.Fatalf("newreno: ssthresh = %d, want flight/2 = %d", a.Ssthresh(), want)
			}
		}
		if a.Cwnd() != a.Ssthresh()+3*mss {
			t.Fatalf("%v: recovery entry cwnd = %d, want ssthresh+3·MSS = %d",
				v, a.Cwnd(), a.Ssthresh()+3*mss)
		}
		// Tiny window and flight: the 2-MSS floor holds for every variant.
		b, err := New(v, Params{InitialWindow: mss})
		if err != nil {
			t.Fatal(err)
		}
		b.Init(0)
		b.OnDupAck(sim.Time(sim.Second), mss, mss)
		if b.Ssthresh() != 2*mss {
			t.Fatalf("%v: ssthresh floor = %d, want 2·MSS = %d", v, b.Ssthresh(), 2*mss)
		}
	}
}

// RTO: every variant collapses to exactly one segment.
func TestRTOCollapsesToOneMSS(t *testing.T) {
	for _, v := range Variants() {
		a := mk(t, v)
		a.OnRTO(sim.Time(sim.Second), mss, 8*mss)
		if a.Cwnd() != mss {
			t.Fatalf("%v: cwnd after RTO = %d, want 1 MSS = %d", v, a.Cwnd(), mss)
		}
		if a.Ssthresh() < 2*mss {
			t.Fatalf("%v: ssthresh after RTO = %d, below the 2·MSS floor", v, a.Ssthresh())
		}
	}
}

// ECN: every variant reduces cwnd to the post-decrease ssthresh without
// the fast-recovery inflation (no segment was lost).
func TestECNResponse(t *testing.T) {
	for _, v := range Variants() {
		a := mk(t, v)
		a.OnECN(sim.Time(sim.Second), mss, 8*mss)
		if a.Cwnd() != a.Ssthresh() {
			t.Fatalf("%v: ECN cwnd = %d, want ssthresh = %d", v, a.Cwnd(), a.Ssthresh())
		}
		if v == NewReno && a.Ssthresh() != 4*mss {
			t.Fatalf("newreno: ECN ssthresh = %d, want flight/2 = %d", a.Ssthresh(), 4*mss)
		}
	}
}

// Shared recovery machinery: inflation, partial-ACK deflation, and the
// exit deflation to min(ssthresh, flight+MSS).
func TestRecoveryMachinery(t *testing.T) {
	for _, v := range Variants() {
		a := mk(t, v)
		a.OnDupAck(sim.Time(sim.Second), mss, 8*mss)
		entry := a.Cwnd()
		a.OnDupAckInflate(mss)
		if a.Cwnd() != entry+mss {
			t.Fatalf("%v: inflation %d → %d, want +MSS", v, entry, a.Cwnd())
		}
		a.OnPartialAck(sim.Time(2*sim.Second), mss, 2*mss, 100*sim.Millisecond)
		if a.Cwnd() != entry+mss-2*mss+mss {
			t.Fatalf("%v: partial-ACK deflation = %d", v, a.Cwnd())
		}
		a.OnExitRecovery(sim.Time(3*sim.Second), mss, 4*mss, 2*mss, 100*sim.Millisecond)
		if want := min(a.Ssthresh(), 3*mss); a.Cwnd() != want {
			t.Fatalf("%v: exit cwnd = %d, want min(ssthresh, flight+MSS) = %d", v, a.Cwnd(), want)
		}
	}
}

// cubicGrowthCurve drives CUBIC through congestion avoidance after a
// decrease from a large window, ACK-clocked at a fixed RTT, and returns
// the cwnd (segments) after each RTT.
func cubicGrowthCurve(t *testing.T, rtts int) []float64 {
	t.Helper()
	a, err := New(Cubic, Params{InitialWindow: 40 * mss})
	if err != nil {
		t.Fatal(err)
	}
	a.Init(0)
	const rtt = 200 * sim.Millisecond
	now := sim.Time(sim.Second)
	// A loss at a 40-segment window sets the plateau W_max = 40.
	a.OnDupAck(now, mss, 40*mss)
	a.OnExitRecovery(now.Add(rtt), mss, 40*mss, a.Ssthresh(), rtt)
	var curve []float64
	for i := 0; i < rtts; i++ {
		acks := max(a.Cwnd()/mss, 1)
		for j := 0; j < acks; j++ {
			now = now.Add(rtt / sim.Duration(acks))
			a.OnAck(now, mss, mss, rtt)
		}
		curve = append(curve, float64(a.Cwnd())/mss)
	}
	return curve
}

// CUBIC window growth is concave while climbing back to the pre-loss
// plateau (per-RTT increments shrink) and convex once probing beyond it
// (increments grow) — the defining RFC 8312 shape, absent from Reno.
func TestCubicConcaveConvexGrowth(t *testing.T) {
	curve := cubicGrowthCurve(t, 60)
	const wMax = 40.0
	var pre, post []float64 // per-RTT increments below/above the plateau
	for i := 1; i < len(curve); i++ {
		inc := curve[i] - curve[i-1]
		if curve[i] < wMax-1 {
			pre = append(pre, inc)
		} else if curve[i-1] > wMax+1 {
			post = append(post, inc)
		}
	}
	if len(pre) < 3 || len(post) < 3 {
		t.Fatalf("curve did not span the plateau: %v", curve)
	}
	// Concave: early climb is strictly faster than the approach to wMax.
	early := pre[0] + pre[1]
	late := pre[len(pre)-2] + pre[len(pre)-1]
	if early <= late {
		t.Fatalf("no concave phase: early increments %.2f vs late %.2f (curve %v)", early, late, curve)
	}
	// Convex: growth beyond the plateau accelerates.
	firstPost := post[0] + post[1]
	lastPost := post[len(post)-2] + post[len(post)-1]
	if lastPost <= firstPost {
		t.Fatalf("no convex phase: %.2f vs %.2f (curve %v)", firstPost, lastPost, curve)
	}
}

// Fast convergence: when losses come back-to-back at shrinking windows,
// CUBIC lowers the plateau below the observed window, releasing
// bandwidth faster than plain multiplicative decrease.
func TestCubicFastConvergence(t *testing.T) {
	alg, err := New(Cubic, Params{InitialWindow: 40 * mss})
	if err != nil {
		t.Fatal(err)
	}
	alg.Init(0)
	a := alg.(*cubic)
	a.OnDupAck(sim.Time(sim.Second), mss, 40*mss)
	if a.wMax != 40 {
		t.Fatalf("first loss: wMax = %v, want 40", a.wMax)
	}
	// The recovery-entry window (ssthresh + 3 MSS) is below the plateau,
	// so the next loss triggers fast convergence.
	segs := float64(a.Cwnd()) / mss
	a.OnDupAck(sim.Time(2*sim.Second), mss, 30*mss)
	want := segs * (2 - cubicBeta) / 2
	if a.wMax != want {
		t.Fatalf("shrinking loss: wMax = %v, want %v", a.wMax, want)
	}
	// LLN floor: even a 1-segment window cannot drive the plateau under 2.
	a.OnRTO(sim.Time(3*sim.Second), mss, mss)
	a.OnDupAck(sim.Time(4*sim.Second), mss, mss)
	if a.wMax != 2 {
		t.Fatalf("wMax floor = %v, want 2", a.wMax)
	}
}

// Westwood+ sets ssthresh from the measured bandwidth-delay product, not
// from the flight: after a steady ACK stream at a known rate, a loss
// leaves ssthresh ≈ BWE·RTTmin, diverging from NewReno's flight/2.
func TestWestwoodBandwidthSsthresh(t *testing.T) {
	a := mk(t, Westwood)
	const rtt = 200 * sim.Millisecond
	// 10 segments per 200 ms RTT ≈ 20400 B/s for 20 simulated seconds.
	now := sim.Time(0)
	for i := 0; i < 1000; i++ {
		now = now.Add(rtt / 10)
		a.OnAck(now, mss, mss, rtt)
	}
	pipe := 10 * mss // BWE·RTTmin = (10·MSS/RTT)·RTT
	flight := 4 * mss
	a.OnDupAck(now, mss, flight)
	got := a.Ssthresh()
	if got < pipe*8/10 || got > pipe*12/10 {
		t.Fatalf("westwood ssthresh = %d, want ≈ BWE·RTTmin = %d", got, pipe)
	}
	if got == flight/2 {
		t.Fatal("westwood ssthresh equals flight/2 — not bandwidth-driven")
	}
	// NewReno on the same history halves the flight instead.
	r := mk(t, NewReno)
	r.OnDupAck(now, mss, flight)
	if r.Ssthresh() == got {
		t.Fatal("westwood and newreno agree on ssthresh; expected divergence")
	}
}

// Idle gaps (duty-cycle sleeps, blackouts) must not dilute the
// bandwidth estimate: dividing a burst's bytes by the dead air would
// crater bwe and push every subsequent loss response to the floor.
func TestWestwoodIdleGapDoesNotDiluteEstimate(t *testing.T) {
	a := mk(t, Westwood).(*westwood)
	const rtt = 200 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		now = now.Add(rtt / 10)
		a.OnAck(now, mss, mss, rtt)
	}
	steady := a.bwe
	// 20 duty cycles: 10 s asleep, then a 10-segment burst over one RTT.
	for cycle := 0; cycle < 20; cycle++ {
		now = now.Add(10 * sim.Second)
		for i := 0; i < 10; i++ {
			now = now.Add(rtt / 10)
			a.OnAck(now, mss, mss, rtt)
		}
	}
	if a.bwe < steady/2 {
		t.Fatalf("idle gaps diluted bwe %.0f → %.0f B/s", steady, a.bwe)
	}
}

// A congestion signal must never raise the threshold above the running
// window: after an RTO collapse, the lagging bandwidth estimate still
// reflects pre-loss throughput and must be clamped.
func TestWestwoodSignalNeverRaisesWindow(t *testing.T) {
	a := mk(t, Westwood)
	const rtt = 200 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 500; i++ {
		now = now.Add(rtt / 10)
		a.OnAck(now, mss, mss, rtt)
	}
	a.OnRTO(now, mss, 10*mss)
	if a.Cwnd() != mss {
		t.Fatalf("cwnd after RTO = %d", a.Cwnd())
	}
	// Dup-ACK signal while the window is still collapsed: the stale
	// estimate (≈10 MSS pipe) must not reinflate it.
	before := a.Cwnd()
	a.OnDupAck(now.Add(rtt), mss, mss)
	if a.Ssthresh() > max(before, 2*mss) {
		t.Fatalf("post-RTO loss raised ssthresh to %d (cwnd was %d)", a.Ssthresh(), before)
	}
	// Same for ECN: the response may not exceed the pre-signal window.
	b := mk(t, Westwood)
	now = 0
	for i := 0; i < 500; i++ {
		now = now.Add(rtt / 10)
		b.OnAck(now, mss, mss, rtt)
	}
	b.OnRTO(now, mss, 10*mss)
	b.OnECN(now.Add(rtt), mss, mss)
	if b.Cwnd() > 2*mss {
		t.Fatalf("ECN after RTO set cwnd = %d, want ≤ 2·MSS", b.Cwnd())
	}
}

// Before the first bandwidth sample exists, a loss must fall back to
// the Reno flight/2 decrease instead of collapsing to the 2-MSS floor.
func TestWestwoodEarlyLossFallsBackToReno(t *testing.T) {
	a := mk(t, Westwood)
	a.OnDupAck(sim.Time(sim.Second), mss, 10*mss)
	if a.Ssthresh() != 5*mss {
		t.Fatalf("pre-sample loss: ssthresh = %d, want flight/2 = %d", a.Ssthresh(), 5*mss)
	}
}

// The bandwidth estimate must survive recovery: ACKs arriving during
// recovery still feed it.
func TestWestwoodAccountsRecoveryAcks(t *testing.T) {
	a := mk(t, Westwood).(*westwood)
	const rtt = 200 * sim.Millisecond
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now = now.Add(rtt / 10)
		a.OnAck(now, mss, mss, rtt)
	}
	before := a.bwe
	a.OnDupAck(now, mss, 4*mss)
	for i := 0; i < 50; i++ {
		now = now.Add(rtt / 2)
		a.OnPartialAck(now, mss, mss, rtt)
	}
	if a.bwe == before {
		t.Fatal("bandwidth estimate frozen during recovery")
	}
}
