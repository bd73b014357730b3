package app

import (
	"testing"

	"tcplp/internal/mesh"
	"tcplp/internal/sim"
	"tcplp/internal/stack"
)

// refusing accepts nothing.
type refusing struct{}

func (refusing) Send([]byte) int { return 0 }

// partial accepts n bytes at most once an instant, so a sensor sampling
// more than that falls behind with a partly accepted reading at the head.
type partial struct {
	eng  *sim.Engine
	last sim.Time
	n    int
}

func (t *partial) Send(p []byte) int {
	if t.eng.Now() == t.last {
		return 0
	}
	t.last = t.eng.Now()
	return min(t.n, len(p))
}

// TestSensorQueueMadeOnce: a sensor whose transport falls behind makes its
// queue at its bound on the first growth, and never again: sample only
// enqueues below QueueCap whole readings, so the queue, a partly accepted
// reading included, never holds QueueCap+1 readings' worth of bytes.
func TestSensorQueueMadeOnce(t *testing.T) {
	for _, name := range []string{"refusing", "partial"} {
		const queueCap = 4
		bound := (queueCap + 1) * ReadingSize
		net := stack.New(1, mesh.Chain(2, 10), stack.DefaultOptions())
		var tr Transport = refusing{}
		if name == "partial" {
			tr = &partial{eng: net.Eng, last: -1, n: 50}
		}
		s := NewSensor(net.Nodes[1], tr, queueCap)
		s.Interval = sim.Second
		s.Start()
		var array *byte // the queue's backing array
		growths := 0
		for sec := 1; sec <= 40; sec++ {
			net.Eng.RunUntil(sim.Time(sim.Duration(sec) * sim.Second))
			if a := &s.queue[:1][0]; a != array {
				if array != nil {
					growths++
					if cap(s.queue) != bound {
						t.Fatalf("%s: at %d s the queue grew to %d bytes, want its bound %d", name, sec, cap(s.queue), bound)
					}
				}
				array = a
			}
			if len(s.queue) > bound {
				t.Fatalf("%s: at %d s the queue holds %d bytes, over its bound %d", name, sec, len(s.queue), bound)
			}
		}
		if growths != 1 || s.Stats.Dropped == 0 {
			t.Fatalf("%s: the queue grew %d times with %d readings dropped, want once, and a full queue", name, growths, s.Stats.Dropped)
		}
	}
}
