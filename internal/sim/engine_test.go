package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30*Millisecond, func() { got = append(got, 3) })
	e.Schedule(10*Millisecond, func() { got = append(got, 1) })
	e.Schedule(20*Millisecond, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != Time(30*Millisecond) {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5*Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events not FIFO at %d: %v", i, got[:i+1])
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(Second, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event not marked cancelled")
	}
}

// TestRefiledCounters: draining a level-1 slot whose entries fire at
// different times re-files each of them, a cancelled one included; a slot
// whose entries all fire at one time moves whole and re-files none.
func TestRefiledCounters(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	count := func() { fired++ }
	e.At(70, count) // 64..127 µs: one level-1 slot, three fire times
	e.Cancel(e.At(80, count))
	e.At(90, count)
	e.At(200, count) // a slot of its own: moved whole
	e.At(200, count)
	e.Run()
	want := Counters{CancelledPops: 1, Refiled: 3, RefiledCancelled: 1}
	if c := e.Counters(); fired != 4 || c != want {
		t.Fatalf("fired %d, counters %+v; want 4 and %+v", fired, c, want)
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var got []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(Duration(i+1)*Millisecond, func() { got = append(got, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 3, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Duration(i)*Second, func() { count++ })
	}
	e.RunUntil(Time(5 * Second))
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != Time(5*Second) {
		t.Fatalf("clock = %v, want 5s", e.Now())
	}
	e.RunFor(5 * Second)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestScheduleDuringRun(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.Schedule(Millisecond, func() {
		got = append(got, e.Now())
		e.Schedule(Millisecond, func() { got = append(got, e.Now()) })
	})
	e.Run()
	if len(got) != 2 || got[0] != Time(Millisecond) || got[1] != Time(2*Millisecond) {
		t.Fatalf("nested scheduling broken: %v", got)
	}
}

func TestPastScheduleClamps(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(Second, func() {
		e.At(0, func() {
			if e.Now() != Time(Second) {
				t.Errorf("past event fired at %v, want clamped to 1s", e.Now())
			}
		})
	})
	e.Run()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := NewEngine(seed)
		var out []int64
		var step func()
		step = func() {
			out = append(out, int64(e.Now()))
			if len(out) < 50 {
				e.Schedule(Duration(e.Rand().Intn(1000)+1), step)
			}
		}
		e.Schedule(1, step)
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestTimerResetStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(10 * Millisecond)
	tm.Reset(20 * Millisecond) // replaces first arming
	if !tm.Armed() {
		t.Fatal("timer should be armed")
	}
	e.RunUntil(Time(15 * Millisecond))
	if fired != 0 {
		t.Fatal("timer fired at replaced deadline")
	}
	e.RunUntil(Time(25 * Millisecond))
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Armed() {
		t.Fatal("timer should auto-disarm after firing")
	}
	tm.Reset(10 * Millisecond)
	tm.Stop()
	tm.Stop()
	e.RunFor(Second)
	if fired != 1 {
		t.Fatalf("stopped timer fired; count=%d", fired)
	}
}

func TestTimerDeadline(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	if _, ok := tm.Deadline(); ok {
		t.Fatal("stopped timer reported a deadline")
	}
	tm.ResetAt(Time(3 * Second))
	when, ok := tm.Deadline()
	if !ok || when != Time(3*Second) {
		t.Fatalf("deadline = %v,%v", when, ok)
	}
}

// TestTimerIgnoresRecycledEvent: a timer that fired still points at its
// event object, which the engine recycles and hands to the next
// Schedule. That other event is not the timer's: the timer reads as
// stopped, Stop leaves the other event to fire, and Reset arms a fresh one.
func TestTimerIgnoresRecycledEvent(t *testing.T) {
	e := NewEngine(1)
	fired, other := 0, 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(Millisecond)
	e.Run()
	ev := e.Schedule(Millisecond, func() { other++ })
	if ev != tm.ev {
		t.Fatal("the engine did not reuse the fired timer's event object")
	}
	if tm.Armed() {
		t.Fatal("a fired timer reads as armed once its event object is reused")
	}
	if _, ok := tm.Deadline(); ok {
		t.Fatal("a fired timer reports the reused event's deadline")
	}
	tm.Stop()
	e.Run()
	if other != 1 {
		t.Fatal("Stop on a fired timer cancelled the event that reused its object")
	}
	tm.Reset(Millisecond)
	if !tm.Armed() {
		t.Fatal("Reset did not re-arm the timer")
	}
	e.Run()
	if fired != 2 || other != 1 {
		t.Fatalf("timer fired %d times, other event %d, want 2 and 1", fired, other)
	}
}

// Property: events always fire in non-decreasing time order, whatever the
// set of scheduled delays.
func TestQuickEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var fireTimes []Time
		for _, d := range delays {
			e.Schedule(Duration(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Run()
		if len(fireTimes) != len(delays) {
			return false
		}
		sorted := sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
		want := make([]Duration, len(delays))
		for i, d := range delays {
			want[i] = Duration(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if fireTimes[i] != Time(want[i]) {
				return false
			}
		}
		return sorted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling a random subset never disturbs the remaining
// events' order or firing.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint16, seed int64) bool {
		e := NewEngine(7)
		rng := rand.New(rand.NewSource(seed))
		fired := make(map[int]bool)
		evs := make([]*Event, len(delays))
		for i, d := range delays {
			i := i
			evs[i] = e.Schedule(Duration(d), func() { fired[i] = true })
		}
		cancelled := make(map[int]bool)
		for i := range evs {
			if rng.Intn(2) == 0 {
				e.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := range delays {
			if cancelled[i] == fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		5 * Second:                 "5.000s",
		1500 * Microsecond:         "1.500ms",
		42 * Microsecond:           "42µs",
		2*Second + 500*Millisecond: "2.500s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

// frameCadence replays the events of one station sending acknowledged
// 802.15.4 frames back to back, with the delays the MAC and PHY use.
type frameCadence struct {
	e       *Engine
	frames  int
	air     Duration
	txEnd   Time
	ackWait *Event

	begin, midAir, endTx, txDone, ackIn, ackTimeout func()
}

func newFrameCadence(e *Engine, id int) *frameCadence {
	c := &frameCadence{e: e, frames: id}
	c.begin = func() { // turnaround over: the frame goes on air
		c.air = 4256 - Duration(c.frames%4)*32*29 // 133 bytes, or up to three 29-byte steps fewer
		c.txEnd = e.Now().Add(c.air)
		e.Schedule(c.air, c.endTx)
		e.Schedule(c.air/2, c.midAir)
	}
	c.midAir = func() { e.At(c.txEnd, c.txDone) } // same microsecond as endTx, scheduled later
	c.endTx = func() {}
	c.txDone = func() {
		c.ackWait = e.Schedule(864, c.ackTimeout)
		e.Schedule(192+352, c.ackIn)
	}
	c.ackIn = func() {
		e.Cancel(c.ackWait)
		c.frames++
		if c.frames%16 == 0 {
			e.Schedule(40*Millisecond, c.begin) // a link-retry delay between datagrams
		} else {
			e.Schedule(192, c.begin)
		}
	}
	c.ackTimeout = func() { panic("the ACK timer is always cancelled") }
	return c
}

// BenchmarkEngineFrameCadence: ns per event fired when the queue is what a
// chain run's is — a dozen pending events at most, almost all of them
// between 64 µs and 5 ms away (wheel levels 1 and 2), with a
// same-microsecond pair and a cancelled timer per frame. The harness
// kernel (sim.schedule_fire_ns: 10 000 self-rescheduling timers, horizons
// to 4 minutes) measures the other regime, where slots hold many distinct
// times.
func BenchmarkEngineFrameCadence(b *testing.B) {
	e := NewEngine(1)
	for id := 0; id < 3; id++ {
		e.Schedule(Duration(id)*700, newFrameCadence(e, id).begin)
	}
	e.RunFor(Second) // event pool warm
	if e.Pending() > 12 {
		b.Fatalf("%d events pending, want a chain's dozen at most", e.Pending())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for target := e.Processed() + uint64(b.N); e.Processed() < target; {
		e.Step()
	}
}

// thenOrder schedules a parent at 10 µs, then the same-instant events in
// between that between asks for, then attaches a continuation to the
// parent, and returns the firing log after a full run. The parent's
// callback schedules one more event for its own instant.
func thenOrder(t *testing.T, between func(e *Engine, at func(string))) ([]string, Counters) {
	t.Helper()
	e := NewEngine(1)
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	e.At(10, log("before")) // sequenced before the parent
	parent := e.At(10, func() {
		got = append(got, "parent")
		e.At(10, log("scheduled by parent"))
	})
	between(e, func(s string) { e.At(10, log(s)) })
	e.Then(parent, log("then"))
	e.At(10, log("after then"))
	e.Run()
	return got, e.Counters()
}

func TestThenFiresRightAfterParent(t *testing.T) {
	got, cnt := thenOrder(t, func(*Engine, func(string)) {})
	want := []string{"before", "parent", "then", "after then", "scheduled by parent"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if cnt != (Counters{ThenInline: 1}) {
		t.Fatalf("counters %+v, want the continuation run inline", cnt)
	}
}

// A live event sequenced between parent and continuation fires between
// them: the continuation is filed at its reserved place, not run next.
func TestThenYieldsToLiveEventBetween(t *testing.T) {
	got, cnt := thenOrder(t, func(_ *Engine, at func(string)) { at("between") })
	want := []string{"before", "parent", "between", "then", "after then", "scheduled by parent"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if cnt != (Counters{ThenFiled: 1}) {
		t.Fatalf("counters %+v, want the continuation filed", cnt)
	}
}

// A cancelled event between them neither fires nor moves the
// continuation, whether it was cancelled before the parent fired or by
// the parent's callback.
func TestThenIgnoresCancelledEventBetween(t *testing.T) {
	want := []string{"before", "parent", "then", "after then", "scheduled by parent"}
	got, cnt := thenOrder(t, func(e *Engine, _ func(string)) {
		e.Cancel(e.At(10, func() { t.Error("cancelled event fired") }))
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cancelled up front: fired %v, want %v", got, want)
	}
	if cnt != (Counters{ThenInline: 1, CancelledPops: 1}) {
		t.Fatalf("cancelled up front: counters %+v, want the continuation run inline", cnt)
	}

	e := NewEngine(1)
	got = nil
	var victim *Event
	parent := e.At(10, func() { got = append(got, "parent"); e.Cancel(victim) })
	victim = e.At(10, func() { t.Error("cancelled event fired") })
	e.Then(parent, func() { got = append(got, "then") })
	e.At(10, func() { got = append(got, "after then") })
	e.Run()
	if want := []string{"parent", "then", "after then"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cancelled by the parent: fired %v, want %v", got, want)
	}
	if c := e.Counters(); c.ThenInline != 1 || c.ThenFiled != 0 {
		t.Fatalf("counters %+v, want the continuation run inline", c)
	}
}

// Cancelling the parent does not cancel its continuation: it fires at its
// reserved place, as the At it stands for would, whether the parent was
// cancelled before Then, after it, or by an event of the same instant.
func TestThenSurvivesCancelledParent(t *testing.T) {
	for _, when := range []string{"before Then", "after Then", "mid-run"} {
		e := NewEngine(1)
		var got []string
		log := func(s string) func() { return func() { got = append(got, s) } }
		var parent *Event
		e.At(10, func() {
			got = append(got, "first")
			if when == "mid-run" {
				e.Cancel(parent)
			}
		})
		parent = e.At(10, func() { t.Error("cancelled parent fired") })
		e.At(10, log("between"))
		if when == "before Then" {
			e.Cancel(parent)
		}
		e.Then(parent, log("then"))
		if when == "after Then" {
			e.Cancel(parent)
		}
		e.At(10, log("after"))
		e.Run()
		if want := []string{"first", "between", "then", "after"}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("cancelled %s: fired %v, want %v", when, got, want)
		}
		if e.Processed() != 4 || e.Pending() != 0 {
			t.Fatalf("cancelled %s: Processed %d, Pending %d, want 4 and 0", when, e.Processed(), e.Pending())
		}
	}
}

// Processed, Pending and Step count a continuation as one event of its
// own, as they would the At it replaces: Step fires the parent, and the
// next Step the continuation.
func TestThenCountsAsOneEvent(t *testing.T) {
	e := NewEngine(1)
	var got []string
	parent := e.At(10, func() { got = append(got, "parent") })
	e.Then(parent, func() { got = append(got, "then") })
	if e.Pending() != 2 {
		t.Fatalf("Pending %d with a parent and its continuation, want 2", e.Pending())
	}
	if !e.Step() || fmt.Sprint(got) != "[parent]" || e.Processed() != 1 || e.Pending() != 1 {
		t.Fatalf("first Step: fired %v, Processed %d, Pending %d; want [parent], 1, 1", got, e.Processed(), e.Pending())
	}
	if !e.Step() || fmt.Sprint(got) != "[parent then]" || e.Processed() != 2 || e.Pending() != 0 {
		t.Fatalf("second Step: fired %v, Processed %d, Pending %d; want [parent then], 2, 0", got, e.Processed(), e.Pending())
	}
	if e.Step() {
		t.Fatal("a third Step fired something")
	}
	if c := e.Counters(); c != (Counters{ThenInline: 1}) {
		t.Fatalf("counters %+v, want one continuation run inline", c)
	}
}

// An event carries one continuation: a second Then on it is refused.
func TestThenOnce(t *testing.T) {
	e := NewEngine(1)
	parent := e.At(10, func() {})
	e.Then(parent, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("a second continuation on one event was accepted")
		}
	}()
	e.Then(parent, func() {})
}
