package netem

import (
	"math/rand"
	"reflect"
	"testing"

	"tcplp/internal/sim"
)

func TestWANSerializationAndDelay(t *testing.T) {
	eng := sim.NewEngine(1)
	l := NewWANLink(eng, WANConfig{
		BandwidthKbps: 8, // 1000 bytes take exactly 1 s
		Delay:         50 * sim.Millisecond,
		QueueCap:      4,
	}, 1)
	var times []sim.Time
	record := func() { times = append(times, eng.Now()) }
	// Two back-to-back messages queue behind each other on the single
	// serializing resource.
	if !l.Send(1000, record, nil) || !l.Send(1000, record, nil) {
		t.Fatal("sends rejected below queue cap")
	}
	if l.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2", l.QueueDepth())
	}
	eng.RunFor(10 * sim.Second)
	want := []sim.Time{
		sim.Time(1050 * sim.Millisecond),
		sim.Time(2050 * sim.Millisecond),
	}
	if len(times) != 2 || times[0] != want[0] || times[1] != want[1] {
		t.Fatalf("delivery times = %v, want %v", times, want)
	}
	if l.Stats.Delivered != 2 || l.Stats.Sent != 2 || l.Stats.BytesSent != 2000 {
		t.Fatalf("stats = %+v", l.Stats)
	}
	if l.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after drain", l.QueueDepth())
	}
}

func TestWANUnconstrainedBandwidth(t *testing.T) {
	eng := sim.NewEngine(2)
	l := NewWANLink(eng, WANConfig{Delay: 30 * sim.Millisecond}, 2)
	var at sim.Time
	l.Send(1<<20, func() { at = eng.Now() }, nil)
	eng.RunFor(sim.Second)
	if at != sim.Time(30*sim.Millisecond) {
		t.Fatalf("delivered at %v, want the bare propagation delay", at)
	}
	if l.cfg.QueueCap != DefaultWANQueueCap {
		t.Fatalf("queue cap = %d, want default %d", l.cfg.QueueCap, DefaultWANQueueCap)
	}
}

func TestWANQueueCapTailDrop(t *testing.T) {
	eng := sim.NewEngine(3)
	l := NewWANLink(eng, WANConfig{BandwidthKbps: 1, QueueCap: 2}, 3)
	if !l.Send(100, nil, nil) || !l.Send(100, nil, nil) {
		t.Fatal("sends rejected below queue cap")
	}
	lost := 0
	if l.Send(100, nil, func() { lost++ }) {
		t.Fatal("send accepted above queue cap")
	}
	if l.Stats.QueueDrops != 1 {
		t.Fatalf("queue drops = %d, want 1", l.Stats.QueueDrops)
	}
	if lost != 0 {
		t.Fatal("tail drop must not fire the in-flight lost callback")
	}
	if l.Stats.MaxQueue != 2 {
		t.Fatalf("max queue = %d, want 2", l.Stats.MaxQueue)
	}
	eng.RunFor(10 * sim.Second)
	if l.Stats.Delivered != 2 {
		t.Fatalf("delivered = %d, want 2", l.Stats.Delivered)
	}
	// After the window reset the tracker restarts at the live depth.
	l.ResetMaxQueue()
	if l.Stats.MaxQueue != 0 {
		t.Fatalf("max queue after reset = %d", l.Stats.MaxQueue)
	}
}

func TestWANLossDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) (delivered, lost uint64) {
		eng := sim.NewEngine(9)
		l := NewWANLink(eng, WANConfig{Loss: 0.3, QueueCap: 1 << 16}, seed)
		for i := 0; i < 500; i++ {
			l.Send(10, nil, nil)
		}
		eng.RunFor(sim.Second)
		return l.Stats.Delivered, l.Stats.LossDrops
	}
	d1, x1 := run(7)
	d2, x2 := run(7)
	if d1 != d2 || x1 != x2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("loss draw degenerate: delivered=%d lost=%d at p=0.3", d1, x1)
	}
	if d1+x1 != 500 {
		t.Fatalf("delivered+lost = %d, want 500", d1+x1)
	}
	d3, _ := run(8)
	if d3 == d1 {
		t.Fatal("different seeds produced identical loss realizations")
	}
}

// closureLink is WANLink.Send as it was before the in-flight rings: one
// closure per message for transmit-done and a second, nested in it, for
// arrival, so every message carries its own state and nothing assumes
// an order. Kept here as the oracle for the rings.
type closureLink struct {
	eng       *sim.Engine
	cfg       WANConfig
	rng       *rand.Rand
	busyUntil sim.Time
	queued    int
	Stats     WANStats
}

func (l *closureLink) Send(size int, deliver, lost func()) bool {
	if l.queued >= l.cfg.QueueCap {
		l.Stats.QueueDrops++
		return false
	}
	l.queued++
	if l.queued > l.Stats.MaxQueue {
		l.Stats.MaxQueue = l.queued
	}
	l.Stats.Sent++
	l.Stats.BytesSent += uint64(size)
	now := l.eng.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	var ser sim.Duration
	if l.cfg.BandwidthKbps > 0 {
		ser = sim.Duration(float64(size*8) / (l.cfg.BandwidthKbps * 1000) * float64(sim.Second))
	}
	txDone := start.Add(ser)
	l.busyUntil = txDone
	dropped := l.cfg.Loss > 0 && l.rng.Float64() < l.cfg.Loss
	l.eng.Schedule(txDone.Sub(now), func() {
		l.queued--
		if dropped {
			l.Stats.LossDrops++
			if lost != nil {
				lost()
			}
			return
		}
		l.eng.Schedule(l.cfg.Delay, func() {
			l.Stats.Delivered++
			if deliver != nil {
				deliver()
			}
		})
	})
	return true
}

// TestWANLinkMatchesClosureModel offers the same 1 000 random messages
// at the same random instants to the link and to the closure model: the
// same sends are refused, the same callback fires for each message at
// the same simulated time and in the same order, and the counters
// agree. Some callbacks are nil and some deliveries send again from
// inside the callback, as a gateway hook may.
func TestWANLinkMatchesClosureModel(t *testing.T) {
	type fired struct {
		id        int
		delivered bool
		at        sim.Time
	}
	type sender interface {
		Send(size int, deliver, lost func()) bool
	}
	for _, cfg := range []WANConfig{
		{BandwidthKbps: 8, Delay: 50 * sim.Millisecond, Loss: 0.1, QueueCap: 4}, // full queue
		{Delay: 30 * sim.Millisecond, QueueCap: 64},                             // bandwidth 0
		{BandwidthKbps: 64, Loss: 0.5, QueueCap: 16},                            // delay 0
		{Loss: 0.5, QueueCap: 2},                                                // neither
		{BandwidthKbps: 256, Delay: 2 * sim.Second, Loss: 0.01, QueueCap: 64},   // many propagating
	} {
		drive := func(eng *sim.Engine, l sender) (log []fired, refused []int) {
			rng := rand.New(rand.NewSource(42))
			var send func(id int)
			send = func(id int) {
				deliver := func() {
					log = append(log, fired{id, true, eng.Now()})
					if id%7 == 0 && id < 1000 {
						send(id + 1000)
					}
				}
				lost := func() { log = append(log, fired{id, false, eng.Now()}) }
				switch id % 5 {
				case 1:
					deliver = nil
				case 2:
					lost = nil
				}
				if !l.Send(1+rng.Intn(400), deliver, lost) {
					refused = append(refused, id)
				}
			}
			for id := 0; id < 1000; id++ {
				send(id)
				if rng.Intn(3) > 0 {
					eng.RunFor(sim.Duration(rng.Intn(300)) * sim.Millisecond)
				}
			}
			eng.RunFor(sim.Minute)
			return log, refused
		}
		engL, engM := sim.NewEngine(5), sim.NewEngine(5)
		link := NewWANLink(engL, cfg, 9)
		model := &closureLink{eng: engM, cfg: cfg, rng: rand.New(rand.NewSource(9))}
		gotLog, gotRefused := drive(engL, link)
		wantLog, wantRefused := drive(engM, model)
		if !reflect.DeepEqual(gotRefused, wantRefused) {
			t.Fatalf("%+v: refused sends differ: %v vs model %v", cfg, gotRefused, wantRefused)
		}
		if len(wantLog) < 400 || !reflect.DeepEqual(gotLog, wantLog) {
			for i := range wantLog {
				if i >= len(gotLog) || gotLog[i] != wantLog[i] {
					t.Fatalf("%+v: callback %d of %d differs from the model's %+v", cfg, i, len(wantLog), wantLog[i])
				}
			}
			t.Fatalf("%+v: %d callbacks, model fired %d", cfg, len(gotLog), len(wantLog))
		}
		if link.Stats != model.Stats || link.QueueDepth() != 0 {
			t.Fatalf("%+v: stats %+v (depth %d), model %+v", cfg, link.Stats, link.QueueDepth(), model.Stats)
		}
	}
}
