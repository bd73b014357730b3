package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refEngine reimplements the engine's contract with the plain (when, seq)
// priority queue the engine used before the timer wheel. The property tests
// below drive it and the real Engine through identical workloads and demand
// bit-identical firing sequences.
type refEvent struct {
	when      Time
	seq       uint64
	index     int
	fn        func()
	cancelled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

type refEngine struct {
	now   Time
	queue refQueue
	seq   uint64
	fired uint64
}

func (e *refEngine) Schedule(d Duration, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	t := e.now.Add(d)
	e.seq++
	ev := &refEvent{when: t, seq: e.seq, fn: fn}
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) Cancel(ev *refEvent) {
	if ev == nil || ev.cancelled || ev.index < 0 {
		return
	}
	ev.cancelled = true
	heap.Remove(&e.queue, ev.index)
}

func (e *refEngine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	e.now = ev.when
	e.fired++
	ev.fn()
	return true
}

func (e *refEngine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].when <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// delayFor derives a deterministic pseudo-random delay for event (id, k),
// spread across wheel levels and level boundaries, up to 2^31 µs ahead, so
// every placement path gets exercised.
func delayFor(id, k int) Duration {
	h := uint64(id)*0x9e3779b97f4a7c15 + uint64(k)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	switch h % 8 {
	case 0:
		return Duration(h>>8) % 4 // heavy ties at the same instant
	case 1:
		return Duration(h>>8) % 64 // level 0
	case 2:
		return Duration(h>>8) % 4096 // level 1
	case 3:
		return Duration(h>>8) % (1 << 18) // level 2
	case 4:
		return Duration(h>>8) % (1 << 24) // level 3
	case 5:
		return Duration(h>>8) % (1 << 30) // level 4
	case 6:
		// Hug the level-4/level-5 boundary from both sides: these flip
		// between the two depending on where the base sits.
		return Duration(1<<30) - 32 + Duration(h>>8)%64
	default:
		return Duration(1<<30) + Duration(h>>8)%(1<<31) // level 5
	}
}

type fireRec struct {
	id int
	at Time
}

// driveWheelWorkload runs the same branching workload — root events that
// fan out children from their callbacks, with a deterministic subset
// cancelled up front and another subset cancelled mid-run by a sibling —
// against an abstract scheduler, returning the firing log. Three shapes
// aim at the wheel's settle rule (the base jumps to the earliest fire time
// of the slot it drains, and a list of one fire time moves to level 0
// whole): same-microsecond pairs whose halves are scheduled at different
// instants, as a frame's txDone and endTx are, some with the earlier half
// cancelled once both are queued; RunUntil deadlines that stop short of the
// next event; and, after each, schedules from outside at and just past the
// stopped clock, ahead of the event the stop left pending.
func driveWheelWorkload(t *testing.T, seed int64,
	schedule func(d Duration, fn func()) (cancel func()),
	now func() Time,
	runUntil func(Time), run func()) []fireRec {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var log []fireRec
	cancels := map[int]func(){}
	nextID := 0
	var spawn func(id, depth int)
	spawn = func(id, depth int) {
		log = append(log, fireRec{id: id, at: now()})
		delete(cancels, id)
		if depth >= 3 {
			return
		}
		kids := int((uint64(id) * 2654435761) % 3)
		for k := 0; k < kids; k++ {
			cid := nextID
			nextID++
			cid2, depth2 := cid, depth
			cancels[cid] = schedule(delayFor(cid, k), func() { spawn(cid2, depth2+1) })
		}
		// Every 4th event arms a same-microsecond pair: its first half now,
		// its second from a helper that fires part of the way there. Every
		// 12th then cancels the first half, leaving a cancelled head in
		// front of a live event of the same time.
		if id%4 == 2 {
			first, second := nextID, nextID+1
			nextID += 2
			d := delayFor(first, 3) + 2
			target := now().Add(d)
			cancelFirst := schedule(d, func() { spawn(first, 3) })
			schedule(d/2, func() {
				schedule(Duration(target-now()), func() { spawn(second, 3) })
				if id%12 == 2 {
					cancelFirst()
				}
			})
		}
		// Every 5th event cancels the lowest-id pending sibling it knows of.
		if id%5 == 1 {
			low := -1
			for c := range cancels {
				if low < 0 || c < low {
					low = c
				}
			}
			if low >= 0 {
				cancels[low]()
				delete(cancels, low)
			}
		}
	}
	root := func(d Duration) {
		id := nextID
		nextID++
		cancels[id] = schedule(d, func() { spawn(id, 0) })
	}
	roots := 60
	for i := 0; i < roots; i++ {
		root(delayFor(nextID, 7))
	}
	// Cancel a deterministic subset before anything runs.
	for i := 0; i < roots; i += 7 {
		if c, ok := cancels[i]; ok {
			c()
			delete(cancels, i)
		}
	}
	// Advance in randomized chunks — most deadlines fall between events —
	// scheduling from outside after each stop, then drain.
	deadline := Time(0)
	for i := 0; i < 6; i++ {
		deadline = deadline.Add(Duration(rng.Int63n(int64(1) << uint(22+i*2))))
		runUntil(deadline)
		root(0)
		root(1)
		root(Duration(rng.Int63n(5000)))
	}
	run()
	return log
}

// TestWheelMatchesHeapOrder is the wheel-vs-heap firing-order property
// test: the wheel engine must fire the exact event sequence, at the exact
// times, that the reference priority queue fires.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		eng := NewEngine(seed)
		gotLog := driveWheelWorkloadOn(t, seed, eng)

		ref := &refEngine{}
		refLog := driveWheelWorkload(t, seed,
			func(d Duration, fn func()) func() {
				ev := ref.Schedule(d, fn)
				return func() { ref.Cancel(ev) }
			},
			func() Time { return ref.now },
			func(deadline Time) { ref.RunUntil(deadline) },
			func() {
				for ref.Step() {
				}
			})

		if len(gotLog) != len(refLog) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotLog), len(refLog))
		}
		for i := range refLog {
			if gotLog[i] != refLog[i] {
				t.Fatalf("seed %d: divergence at firing %d: wheel %+v, heap %+v", seed, i, gotLog[i], refLog[i])
			}
		}
		if eng.Processed() != ref.fired {
			t.Fatalf("seed %d: Processed()=%d, reference fired %d", seed, eng.Processed(), ref.fired)
		}
		if eng.Pending() != 0 {
			t.Fatalf("seed %d: Pending()=%d after drain", seed, eng.Pending())
		}
	}
}

func driveWheelWorkloadOn(t *testing.T, seed int64, eng *Engine) []fireRec {
	t.Helper()
	return driveWheelWorkload(t, seed,
		func(d Duration, fn func()) func() {
			ev := eng.Schedule(d, fn)
			return func() { eng.Cancel(ev) }
		},
		eng.Now,
		func(deadline Time) {
			eng.RunUntil(deadline)
			if eng.wheel.base > eng.Now() {
				t.Fatalf("seed %d: base %d passed the clock %d at a RunUntil stop", seed, eng.wheel.base, eng.Now())
			}
		},
		eng.Run)
}

// Equal-time events, one scheduled far ahead and the rest once the clock
// is close, still fire in schedule order.
func TestWheelFarAndNearTieFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	target := Time(1<<30) + 77 // level 5 at t=0
	e.At(target, func() { got = append(got, 0) })
	// March the base close enough that the same instant lands in level 0.
	e.Schedule(Duration(1<<30)+10, func() {
		e.At(target, func() { got = append(got, 1) })
		e.At(target, func() { got = append(got, 2) })
	})
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("far/near tie broke FIFO: %v", got)
	}

	// A run that stops short of the next event leaves the base at or behind
	// the clock. A schedule for that event's instant joins the wheel after the
	// event already there; one a microsecond earlier fires first.
	got = got[:0]
	next := e.Now().Add(5000)
	e.At(next, func() { got = append(got, 0) })
	e.RunUntil(e.Now().Add(1000))
	if e.wheel.base > e.Now() {
		t.Fatalf("base %d passed the clock %d stopping short of the event at %d", e.wheel.base, e.Now(), next)
	}
	e.At(next, func() { got = append(got, 1) })
	e.At(next-1, func() { got = append(got, -1) })
	e.Run()
	if len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 1 {
		t.Fatalf("tie after a stop short broke FIFO: %v", got)
	}
}

// Events scheduled across a level boundary, and between a stopped clock
// and the event the stop left pending, fire in global order; the base
// never passes the clock at the stop.
func TestWheelStopShortKeepsBaseOnClock(t *testing.T) {
	e := NewEngine(1)
	var got []int
	boundary := Time(1 << 30)
	e.At(boundary-10, func() {
		// Now the base sits just below the level-4/level-5 boundary;
		// everything past it lands in level 5.
		e.At(boundary+40, func() {
			got = append(got, 1)
			e.At(boundary+45, func() { got = append(got, 2) })
			e.At(boundary+200, func() { got = append(got, 4) })
			e.At(boundary+50, func() { got = append(got, 3) })
		})
	})
	e.At(boundary-10+100, func() { got = append(got, 0) }) // boundary+90: after 1, 2, 3
	e.Run()
	want := []int{1, 2, 3, 0, 4}
	// boundary+40 < boundary+45 < boundary+50 < boundary+90 < boundary+200.
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}

	// A run that stops short of a far event leaves the base at or behind the
	// clock, so events then scheduled in between, and what those schedule
	// on either side of the pending event, fire in time order.
	got = got[:0]
	t0 := e.Now()
	e.At(t0+70_000, func() { got = append(got, 5) }) // level 2
	e.RunUntil(t0 + 1000)
	if e.wheel.base > e.Now() || e.Now() != t0+1000 {
		t.Fatalf("base %d, now %d: want the base at or behind the clock at %d", e.wheel.base, e.Now(), t0+1000)
	}
	e.At(t0+3000, func() {
		got = append(got, 1)
		e.At(t0+4000, func() { got = append(got, 2) })
		e.At(t0+70_000, func() { got = append(got, 6) }) // on the pending event: after 5
		e.At(t0+90_000, func() { got = append(got, 7) }) // past it
	})
	e.At(t0+2000, func() { got = append(got, 0) })
	e.At(t0+69_999, func() { got = append(got, 4) })
	e.At(t0+5000, func() { got = append(got, 3) })
	e.Run()
	for i, id := range got {
		if id != i {
			t.Fatalf("fired %v, want 0 … 7 in order", got)
		}
	}
	if len(got) != 8 {
		t.Fatalf("fired %v, want 0 … 7 in order", got)
	}
}

// The wheel's top level spans every Time: events at 2^31, 2^40 and 2^62 µs
// and at the last representable microsecond, each with an equal-time tie
// scheduled later, fire in (when, seq) order under Step, Run and a RunUntil
// that stops short of them.
func TestWheelSpansAllTime(t *testing.T) {
	times := []Time{1 << 62, math.MaxInt64, 1 << 31, 1 << 40}
	type rec struct {
		at Time
		id int
	}
	// schedule arms, for each time, one event now and its tie from an
	// event a quarter of the way there; want is the (when, seq) order.
	schedule := func(e *Engine, got *[]rec) []rec {
		var want []rec
		for i, at := range times {
			at, id := at, 2*i
			e.At(at, func() { *got = append(*got, rec{e.Now(), id}) })
			e.At(at/4, func() {
				e.At(at, func() { *got = append(*got, rec{e.Now(), id + 1}) })
			})
			want = append(want, rec{at, id}, rec{at, id + 1})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		return want
	}
	check := func(mode string, got, want []rec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: fired %v, want %v", mode, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: fired %v, want %v", mode, got, want)
			}
		}
	}

	e := NewEngine(1)
	var got []rec
	want := schedule(e, &got)
	for e.Step() {
	}
	check("Step", got, want)

	e, got = NewEngine(1), nil
	want = schedule(e, &got)
	e.Run()
	check("Run", got, want)

	// Stop short of each far time in turn, then a microsecond before the
	// last one; the base stays at or behind the clock at every stop.
	e, got = NewEngine(1), nil
	want = schedule(e, &got)
	for _, stop := range []Time{1 << 30, 1<<31 - 1, 1 << 39, 1<<62 - 1, math.MaxInt64 - 1} {
		e.RunUntil(stop)
		if e.Now() != stop || e.wheel.base > e.Now() {
			t.Fatalf("RunUntil(%d): now %d, base %d", stop, e.Now(), e.wheel.base)
		}
		for _, r := range got {
			if r.at > stop {
				t.Fatalf("RunUntil(%d) fired %v past its deadline", stop, r)
			}
		}
	}
	if len(got) != len(want)-2 {
		t.Fatalf("RunUntil: fired %d before the last time, want %d", len(got), len(want)-2)
	}
	e.RunUntil(math.MaxInt64)
	check("RunUntil", got, want)
}

// Pending must track live (uncancelled, unfired) events under lazy
// cancellation.
func TestWheelPendingWithLazyCancel(t *testing.T) {
	e := NewEngine(1)
	evs := make([]*Event, 10)
	for i := range evs {
		evs[i] = e.Schedule(Duration(i+1)*Millisecond, func() {})
	}
	if e.Pending() != 10 {
		t.Fatalf("Pending=%d want 10", e.Pending())
	}
	e.Cancel(evs[3])
	e.Cancel(evs[3])
	e.Cancel(evs[8])
	if e.Pending() != 8 {
		t.Fatalf("Pending=%d want 8 after cancels", e.Pending())
	}
	e.RunUntil(Time(5 * Millisecond))
	if e.Pending() != 4 {
		t.Fatalf("Pending=%d want 4 after partial run", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending=%d want 0 after drain", e.Pending())
	}
	if e.Processed() != 8 {
		t.Fatalf("Processed=%d want 8", e.Processed())
	}
}

// Recycled events must not leak state into later schedules.
func TestWheelEventRecycling(t *testing.T) {
	e := NewEngine(1)
	const n = 1000
	fired := 0
	for i := 0; i < n; i++ {
		e.Schedule(Duration(i%97), func() { fired++ })
		if i%3 == 0 {
			ev := e.Schedule(Duration(i%53), func() { t.Error("cancelled event fired") })
			e.Cancel(ev)
		}
	}
	e.Run()
	if fired != n {
		t.Fatalf("fired=%d want %d", fired, n)
	}
	// Reuse the engine: recycled objects must behave like fresh ones.
	again := 0
	for i := 0; i < n; i++ {
		e.Schedule(Duration(i%89), func() { again++ })
	}
	e.Run()
	if again != n {
		t.Fatalf("second round fired=%d want %d", again, n)
	}
}
